#include "calibrate.h"

#include "corpus.h"
#include "stats.h"

#include "src/util/stopwatch.h"

namespace perfbench {

namespace {

constexpr std::size_t kTableSize = std::size_t{1} << 22;  // 16 MiB of uint32
constexpr int kSteps = 200'000;

/// Keeps the kernel's result live so the compiler cannot drop the loop.
volatile std::uint64_t g_sink = 0;

}  // namespace

std::size_t SpeedProbe::table_bytes() { return kTableSize * sizeof(std::uint32_t); }

SpeedProbe::SpeedProbe() : table_(kTableSize) {
  SplitMix64 rng(0x5eed);
  for (std::uint32_t& v : table_) v = static_cast<std::uint32_t>(rng.next());
}

double SpeedProbe::run_kernel() const {
  // Two halves of about equal time, because the learner's time is part
  // memory stalls and part arithmetic, and neighbours slow the two by
  // different amounts. The first half makes random loads over a table eight
  // times the size of one core's L2, with a branch the predictor cannot
  // learn: the profile of the solver's watch lists and clause arena and of
  // the ingest's hash tables. The second is a dependent chain of integer
  // operations that stays in registers.
  const t2m::Stopwatch watch;
  std::uint64_t x = 88172645463325252ULL;
  std::uint64_t acc = 0;
  for (int i = 0; i < kSteps; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const std::uint32_t j = static_cast<std::uint32_t>(x % kTableSize);
    if (table_[j] & 1u) {
      acc += table_[j];
    } else {
      acc ^= j;
    }
  }
  for (int i = 0; i < 2 * kSteps; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x += static_cast<std::uint64_t>(i);
  }
  g_sink = acc + x;
  return watch.elapsed_seconds();
}

void SpeedProbe::sample_after(double busy_seconds) {
  // The untimed first run brings the table back into cache after the work
  // that ran before it, so what that work touched does not move the samples.
  static_cast<void>(run_kernel());
  seconds_.push_back(run_kernel());
  for (double t = kSampleEvery; t <= busy_seconds; t += kSampleEvery) {
    seconds_.push_back(run_kernel());
  }
}

double SpeedProbe::scale_since(std::size_t first) const {
  if (first >= seconds_.size()) return 1.0;
  return kReferenceSeconds /
         median({seconds_.begin() + static_cast<std::ptrdiff_t>(first), seconds_.end()});
}

}  // namespace perfbench
