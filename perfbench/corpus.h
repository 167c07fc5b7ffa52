#ifndef T2M_PERFBENCH_CORPUS_H
#define T2M_PERFBENCH_CORPUS_H

// Seeded input generation for the benchmark: random-DFA walks written as
// text traces, plus the byte fingerprint every input is labelled with.

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <ostream>
#include <streambuf>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

/// splitmix64: a fixed, platform-independent stream for a given seed (the
/// standard library's distributions are not specified bit-for-bit, so the
/// generator draws its own bounded integers).
class SplitMix64 {
public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, n); n > 0.
  std::uint64_t below(std::uint64_t n);

private:
  std::uint64_t state_;
};

/// Derives an independent seed for sub-stream `index` of `seed`.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t index);

/// A partial deterministic automaton over `symbols` event symbols. Every
/// state has out-degree 2 with distinct symbols: one edge follows a random
/// Hamiltonian cycle (so the automaton is strongly connected and a walk
/// visits every state) and one goes to a uniformly random state.
struct RandomDfa {
  std::size_t states = 0;
  std::size_t symbols = 0;
  std::size_t initial = 0;
  /// out[q] = (symbol, destination) pairs, sorted by symbol.
  std::vector<std::vector<std::pair<std::size_t, std::size_t>>> out;
};

RandomDfa random_dfa(std::size_t states, std::size_t symbols, std::uint64_t seed);

/// Symbol sequence of a uniformly random walk of `length` events from the
/// initial state (each step picks one of the current state's edges).
std::vector<std::size_t> random_walk(const RandomDfa& dfa, std::size_t length,
                                     std::uint64_t seed);

/// Writes a walk in the `# t2m-trace v1` text format: one categorical
/// variable `ev` whose symbols a0..a{m-1} are declared up front.
void write_walk_trace(std::ostream& os, const RandomDfa& dfa,
                      const std::vector<std::size_t>& walk);

/// One corpus case: the generating automaton's size (an upper bound on the
/// learned N) and the seeds of the automaton and of the walk over it.
struct CorpusSpec {
  std::string name;
  std::size_t generator_states = 0;
  std::size_t walk_length = 0;
  std::uint64_t automaton_seed = 0;
  std::uint64_t walk_seed = 0;
};

/// `cases` walks, stratified so every generator size in [min_states,
/// max_states] gets the same share of cases (each automaton has as many
/// symbols as states). Case i's automaton derives from `automata_seed` and
/// its walk from `walk_seed`.
std::vector<CorpusSpec> corpus_specs(std::uint64_t automata_seed, std::uint64_t walk_seed,
                                     std::size_t cases,
                                     std::size_t min_states, std::size_t max_states,
                                     std::size_t walk_length);

/// Generates and writes one case's trace text.
void write_corpus_case(std::ostream& os, const CorpusSpec& spec);

/// 64-bit FNV-1a, the fingerprint printed for every input.
class Fnv1a {
public:
  void update(std::string_view bytes);
  std::uint64_t value() const { return h_; }

private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::string hex64(std::uint64_t v);

/// Output buffer that fingerprints every byte on its way into a file, so an
/// input is hashed while it is written instead of being read back.
class FingerprintFileBuf : public std::streambuf {
public:
  /// Opens `path` for writing; ok() reports whether that worked.
  explicit FingerprintFileBuf(const std::string& path);
  ~FingerprintFileBuf() override;
  FingerprintFileBuf(const FingerprintFileBuf&) = delete;
  FingerprintFileBuf& operator=(const FingerprintFileBuf&) = delete;

  bool ok() const { return !failed_; }
  /// Flushes and closes the file; false when any write failed.
  bool close();
  std::uint64_t fingerprint() const { return hash_.value(); }

protected:
  int_type overflow(int_type ch) override;
  int sync() override;

private:
  bool drain();

  std::FILE* file_ = nullptr;
  bool failed_ = false;
  Fnv1a hash_;
  std::vector<char> buffer_;
};

}  // namespace perfbench

#endif  // T2M_PERFBENCH_CORPUS_H
