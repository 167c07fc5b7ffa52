#include "corpus.h"

#include <algorithm>
#include <cstdio>

namespace perfbench {

std::uint64_t SplitMix64::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t SplitMix64::below(std::uint64_t n) {
  // Rejection sampling keeps the draw exactly uniform.
  const std::uint64_t limit = ~std::uint64_t{0} - (~std::uint64_t{0} % n);
  std::uint64_t x = next();
  while (x >= limit) x = next();
  return x % n;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t index) {
  SplitMix64 rng(seed ^ (0x6a09e667f3bcc909ULL * (index + 1)));
  return rng.next();
}

RandomDfa random_dfa(std::size_t states, std::size_t symbols, std::uint64_t seed) {
  SplitMix64 rng(seed);
  RandomDfa dfa;
  dfa.states = states;
  dfa.symbols = symbols;
  dfa.out.resize(states);

  std::vector<std::size_t> cycle(states);
  for (std::size_t i = 0; i < states; ++i) cycle[i] = i;
  for (std::size_t i = states; i > 1; --i) std::swap(cycle[i - 1], cycle[rng.below(i)]);
  dfa.initial = cycle[0];

  for (std::size_t i = 0; i < states; ++i) {
    const std::size_t q = cycle[i];
    const std::size_t next = cycle[(i + 1) % states];
    const std::size_t s1 = rng.below(symbols);
    std::size_t s2 = rng.below(symbols - 1);
    if (s2 >= s1) ++s2;
    dfa.out[q].emplace_back(s1, next);
    dfa.out[q].emplace_back(s2, rng.below(states));
    std::sort(dfa.out[q].begin(), dfa.out[q].end());
  }
  return dfa;
}

std::vector<std::size_t> random_walk(const RandomDfa& dfa, std::size_t length,
                                     std::uint64_t seed) {
  SplitMix64 rng(seed);
  std::vector<std::size_t> walk;
  walk.reserve(length);
  std::size_t q = dfa.initial;
  for (std::size_t i = 0; i < length; ++i) {
    const auto& edges = dfa.out[q];
    const auto& [symbol, dst] = edges[rng.below(edges.size())];
    walk.push_back(symbol);
    q = dst;
  }
  return walk;
}

void write_walk_trace(std::ostream& os, const RandomDfa& dfa,
                      const std::vector<std::size_t>& walk) {
  os << "# t2m-trace v1\n# var ev cat";
  for (std::size_t s = 0; s < dfa.symbols; ++s) os << " a" << s;
  os << '\n';
  for (const std::size_t s : walk) os << 'a' << s << '\n';
}

std::vector<CorpusSpec> corpus_specs(std::uint64_t automata_seed, std::uint64_t walk_seed,
                                     std::size_t cases,
                                     std::size_t min_states, std::size_t max_states,
                                     std::size_t walk_length) {
  const std::size_t sizes = max_states - min_states + 1;
  std::vector<CorpusSpec> specs;
  specs.reserve(cases);
  for (std::size_t i = 0; i < cases; ++i) {
    CorpusSpec spec;
    spec.generator_states = min_states + i % sizes;
    spec.walk_length = walk_length;
    spec.automaton_seed = mix_seed(automata_seed, i);
    spec.walk_seed = mix_seed(walk_seed, i);
    char name[32];
    std::snprintf(name, sizeof name, "c%03zu-n%zu", i, spec.generator_states);
    spec.name = name;
    specs.push_back(std::move(spec));
  }
  return specs;
}

void write_corpus_case(std::ostream& os, const CorpusSpec& spec) {
  const RandomDfa dfa =
      random_dfa(spec.generator_states, spec.generator_states, spec.automaton_seed);
  write_walk_trace(os, dfa, random_walk(dfa, spec.walk_length, spec.walk_seed));
}

void Fnv1a::update(std::string_view bytes) {
  for (const char c : bytes) {
    h_ ^= static_cast<unsigned char>(c);
    h_ *= 0x100000001b3ULL;
  }
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

FingerprintFileBuf::FingerprintFileBuf(const std::string& path)
    : file_(std::fopen(path.c_str(), "wb")),
      failed_(file_ == nullptr),
      buffer_(std::size_t{1} << 16) {
  setp(buffer_.data(), buffer_.data() + buffer_.size());
}

FingerprintFileBuf::~FingerprintFileBuf() { close(); }

bool FingerprintFileBuf::drain() {
  const std::size_t n = static_cast<std::size_t>(pptr() - pbase());
  if (n > 0) {
    hash_.update({pbase(), n});
    if (file_ == nullptr || std::fwrite(pbase(), 1, n, file_) != n) failed_ = true;
  }
  setp(buffer_.data(), buffer_.data() + buffer_.size());
  return !failed_;
}

FingerprintFileBuf::int_type FingerprintFileBuf::overflow(int_type ch) {
  if (!drain()) return traits_type::eof();
  if (!traits_type::eq_int_type(ch, traits_type::eof())) {
    *pptr() = traits_type::to_char_type(ch);
    pbump(1);
  }
  return traits_type::not_eof(ch);
}

int FingerprintFileBuf::sync() { return drain() ? 0 : -1; }

bool FingerprintFileBuf::close() {
  if (file_ != nullptr) {
    drain();
    if (std::fclose(file_) != 0) failed_ = true;
    file_ = nullptr;
  }
  return !failed_;
}

}  // namespace perfbench
