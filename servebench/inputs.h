#ifndef SERVEBENCH_INPUTS_H_
#define SERVEBENCH_INPUTS_H_

// Inputs. One src/datagen call, with a fixed corpus seed, generates the
// seed corpus together with the held-out posts that ADD_POST sends and the
// in-process ASKs analyze, one held-out post per scenario, so each shares
// its scenario with three corpus posts. The workload seed draws the traffic over that fixed
// dataset: the hot set, the QUERY streams and the order of the held-out
// posts. The program under test receives only texts and ids; the scenario
// ids stay here, for judging precision.

#include <cstdint>
#include <string>
#include <vector>

namespace servebench {

/// Deterministic 64-bit generator (splitmix64): the same state yields the
/// same sequence with any standard library.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n) (n > 0; the modulo bias is below 2^-40 here).
  uint32_t below(uint32_t n) { return static_cast<uint32_t>(next() % n); }

 private:
  uint64_t state_;
};

/// Derives an independent stream seed from the workload seed and a salt.
uint64_t stream_seed(uint64_t seed, uint64_t salt);

struct Inputs {
  std::vector<std::string> seed_texts;  ///< corpus post i gets id i
  std::vector<int> seed_scenarios;
  std::vector<std::string> add_texts;   ///< held out; ADD_POST in order
  std::vector<std::string> ask_texts;   ///< held out; in-process ASK
  std::vector<uint32_t> hot_set;        ///< distinct seed ids
  std::vector<uint32_t> judge_ids;      ///< precision sample, same for
                                        ///< every workload seed

  /// FNV-1a over every text, scenario and id above.
  uint64_t fingerprint() const;
};

struct InputShape {
  size_t seed_posts = 8000;
  size_t add_posts = 1600;
  size_t ask_posts = 1000;
  size_t hot_set = 256;
  size_t judge_ids = 1000;
};

/// Generates every input of a run for workload seed `seed`, with the
/// tech-support generator settings of the repository's quality benches. Returns empty
/// inputs when the shape holds out more posts than there are scenarios.
Inputs make_inputs(uint64_t seed, const InputShape& shape);

}  // namespace servebench

#endif  // SERVEBENCH_INPUTS_H_
