// Fuzz target: the snapshot v2 loader (storage/snapshot_v2.h) — the
// recovery path ShardedServing::restore reads every shard snapshot
// through. Arbitrary bytes go through load_snapshot_v2_file, exercising
// the binary section parser (length prefixes, CRC frames) and every
// section decoder. The contract under fuzzing: never crash, never
// over-read (ASan-checked), and never return a structurally inconsistent
// snapshot.

#include "fuzz_driver.h"

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/sharded_serving.h"
#include "datagen/post_generator.h"
#include "storage/snapshot_v2.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  static const std::string path = ibseg_fuzz::scratch_path("snapshot");
  ibseg_fuzz::write_scratch(path, data, size);

  std::optional<ibseg::ServingSnapshot> v2 =
      ibseg::load_snapshot_v2_file(path);
  // The loader promises structural validity — an accepted-but-broken
  // snapshot would crash restore later, far from the bad bytes.
  if (v2.has_value() && !v2->is_consistent()) std::abort();
  return 0;
}

std::vector<std::string> fuzz_seed_inputs() {
  std::vector<std::string> seeds;
  // Real shard snapshots, written by a directory-format save: one at
  // generation 0 with an ingested tail, one after a recluster (offline
  // section, centroids and pending pool all populated).
  ibseg::GeneratorOptions gen;
  gen.num_posts = 6;
  gen.posts_per_scenario = 3;
  gen.seed = 99;
  ibseg::ServingOptions options;
  options.recluster.pending_distance_threshold = 0.0;
  auto serving = ibseg::ShardedServing::create(
      ibseg::analyze_corpus(ibseg::generate_corpus(gen)), {}, options);
  const std::string dir = ibseg_fuzz::scratch_path("snapshot_seed_dir");
  auto add_seed = [&](const std::string& file) {
    std::ifstream is(dir + "/shard-0/" + file, std::ios::binary);
    seeds.emplace_back((std::istreambuf_iterator<char>(is)),
                       std::istreambuf_iterator<char>());
  };
  serving->add_post("my printer jams after the update. how do i fix it?");
  if (serving->save(dir)) add_seed("snapshot.v2");
  serving->recluster();
  serving->add_post("the scanner also stopped working. any firmware tips?");
  if (serving->save(dir)) add_seed("snapshot.g1.v2");
  std::filesystem::remove_all(dir);
  seeds.push_back("");            // empty file
  seeds.push_back("IBSGSNP2");    // magic with nothing behind it
  return seeds;
}
