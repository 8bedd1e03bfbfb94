#pragma once

#include <algorithm>
#include <array>
#include <cmath>

namespace qopt {

/// Compile-time bracket tables behind MetropolisAccept (below).
namespace metropolis_internal {

inline constexpr unsigned kStepsPerOctave = 64;
inline constexpr unsigned kClampOctave = 55;
inline constexpr double kLog2eTimesSteps = kStepsPerOctave * 1.4426950408889634;
inline constexpr double kMaxY = kStepsPerOctave * kClampOctave;
inline constexpr double kWiden = 1e-12;

/// exp(-r) for 0 <= r <= ln 2 by its Taylor series: within a few ulps,
/// far inside kWiden. Compile time only.
constexpr double ExpNegSeries(double r) {
  double term = 1.0;
  double sum = 1.0;
  for (int i = 1; i < 30; ++i) {
    term *= -r / i;
    sum += term;
  }
  return sum;
}

struct Bounds {
  double lower;
  double upper;
};

/// Bounds of 2^(-(j+f)/64), f in [0, 1), for j = m mod 64.
constexpr std::array<Bounds, kStepsPerOctave> MakeStepBounds() {
  constexpr double kLn2 = 0.69314718055994530942;
  std::array<Bounds, kStepsPerOctave> bounds{};
  for (unsigned j = 0; j < kStepsPerOctave; ++j) {
    bounds[j].lower =
        ExpNegSeries((j + 1) * kLn2 / kStepsPerOctave) * (1.0 - kWiden);
    bounds[j].upper = ExpNegSeries(j * kLn2 / kStepsPerOctave) * (1.0 + kWiden);
  }
  return bounds;
}

/// 2^-k for octave k = m / 64; the clamp octave's lower scale is 0.
constexpr std::array<Bounds, kClampOctave + 1> MakeOctaveScales() {
  std::array<Bounds, kClampOctave + 1> scales{};
  double scale = 1.0;
  for (unsigned k = 0; k <= kClampOctave; ++k) {
    scales[k] = {k < kClampOctave ? scale : 0.0, scale};
    scale *= 0.5;
  }
  return scales;
}

inline constexpr std::array<Bounds, kStepsPerOctave> kStepBounds =
    MakeStepBounds();
inline constexpr std::array<Bounds, kClampOctave + 1> kOctaveScales =
    MakeOctaveScales();

}  // namespace metropolis_internal

/// The Metropolis test of the annealer's sweep, `u < exp(-x)` for a draw
/// u in [0, 1) and x = beta * dE, decided without calling exp unless the
/// draw lands within about 1% of exp(-x).
///
/// x is mapped to y = 64 x log2(e) and y = m + f (m integer, f in [0, 1))
/// puts exp(-x) = 2^(-y/64) between 2^(-(m+1)/64) and 2^(-m/64). A table
/// holds those two bounds for each m mod 64, widened by a relative 1e-12;
/// the octave m / 64 scales them by an exact power of two. The widening
/// covers the rounding of y (at most ~1e-12 in y, ~1e-14 relative in
/// exp(-x)), exp's own error (under one ulp) and the table's, so
/// `u < lower` proves `u < std::exp(-x)` and `u >= upper` proves the
/// opposite. In between, std::exp decides. The result is therefore what
/// `u < std::exp(-x)` returns, for every u in [0, 1) and every x,
/// including +-inf and NaN.
///
/// y is clamped to [0, 64 * 55]. From octave 54 on (x > 54 ln 2 ~ 37.4)
/// the upper bound is below the smallest non-zero Rng::NextDouble() draw,
/// 2^-53, so every draw but 0 is rejected outright. The clamp row (x >
/// ~38.1) has no lower bound, so a draw of 0 goes to std::exp, which is
/// 0 past x ~ 745. Negative x lands in row 0, whose upper bound 1 + 1e-12
/// no draw reaches, and NaN in the clamp row; both end at std::exp.
///
/// The caller draws u before deciding either way, so the RNG stream does
/// not depend on which branch ran.
inline bool MetropolisAccept(double u, double x) {
  namespace mi = metropolis_internal;
  // min before max: a NaN y falls to the clamp row, never to row 0.
  const double y =
      std::max(0.0, std::min(mi::kMaxY, x * mi::kLog2eTimesSteps));
  const unsigned m = static_cast<unsigned>(y);
  const mi::Bounds& step = mi::kStepBounds[m % mi::kStepsPerOctave];
  const mi::Bounds& octave = mi::kOctaveScales[m / mi::kStepsPerOctave];
  if (u < step.lower * octave.lower) return true;
  if (u >= step.upper * octave.upper) return false;
  return u < std::exp(-x);
}

}  // namespace qopt
