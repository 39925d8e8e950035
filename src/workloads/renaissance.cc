#include "src/workloads/renaissance.h"

#include "src/util/check.h"

namespace nvmgc {

namespace {

constexpr size_t kMiB = 1024 * 1024;

// Builder with the defaults most profiles share.
WorkloadProfile Base(const char* name, uint64_t seed) {
  WorkloadProfile p;
  p.name = name;
  p.seed = seed;
  p.small_object_fraction = 0.85;
  p.small_ref_fields = 2;
  p.small_payload_bytes = 40;
  p.array_bytes_min = 256;
  p.array_bytes_max = 4096;
  p.ref_array_fraction = 0.2;
  p.survival_fraction = 0.08;
  p.live_window_bytes = 4 * kMiB;
  p.chain_fraction = 0.0;
  p.reads_per_alloc = 0.6;
  p.writes_per_alloc = 0.25;
  p.touch_bytes = 64;
  p.mutator_cache_hit = 0.55;
  p.total_allocation_bytes = 64 * kMiB;
  return p;
}

}  // namespace

std::vector<WorkloadProfile> RenaissanceProfiles() {
  std::vector<WorkloadProfile> v;

  // Actor-based UCT search: few live objects, deeply imbalanced traversal —
  // most GC threads idle while one walks the actor mailbox chain (Fig. 7e).
  {
    WorkloadProfile p = Base("akka-uct", 101);
    p.small_object_fraction = 0.95;
    p.survival_fraction = 0.03;
    p.live_window_bytes = 2 * kMiB;
    p.chain_fraction = 0.55;
    p.total_allocation_bytes = 96 * kMiB;
    p.reads_per_alloc = 0.8;
    v.push_back(p);
  }
  // ALS matrix factorization: large factor arrays, bandwidth-hungry GC but an
  // app phase that does not saturate NVM (Fig. 3).
  {
    WorkloadProfile p = Base("als", 102);
    p.small_object_fraction = 0.45;
    p.array_bytes_min = 512;
    p.array_bytes_max = 8192;
    p.survival_fraction = 0.08;
    p.live_window_bytes = 8 * kMiB;
    p.total_allocation_bytes = 96 * kMiB;
    p.reads_per_alloc = 1.2;
    p.writes_per_alloc = 0.4;
    p.mutator_cache_hit = 0.85;  // Factor blocks stream through cache.
    v.push_back(p);
  }
  {
    WorkloadProfile p = Base("chi-square", 103);
    p.small_object_fraction = 0.5;
    p.array_bytes_min = 256;
    p.array_bytes_max = 2048;
    p.survival_fraction = 0.04;
    p.live_window_bytes = 3 * kMiB;
    v.push_back(p);
  }
  {
    WorkloadProfile p = Base("dec-tree", 104);
    p.small_object_fraction = 0.55;
    p.survival_fraction = 0.06;
    p.live_window_bytes = 6 * kMiB;
    p.total_allocation_bytes = 80 * kMiB;
    v.push_back(p);
  }
  // Scala compiler: pointer-rich small objects.
  {
    WorkloadProfile p = Base("dotty", 105);
    p.small_object_fraction = 0.92;
    p.small_ref_fields = 3;
    p.survival_fraction = 0.05;
    v.push_back(p);
  }
  {
    WorkloadProfile p = Base("finagle-chirper", 106);
    p.small_object_fraction = 0.92;
    p.survival_fraction = 0.035;
    p.live_window_bytes = 2 * kMiB;
    p.total_allocation_bytes = 72 * kMiB;
    p.reads_per_alloc = 1.0;
    v.push_back(p);
  }
  {
    WorkloadProfile p = Base("finagle-http", 107);
    p.small_object_fraction = 0.9;
    p.survival_fraction = 0.03;
    p.live_window_bytes = 2 * kMiB;
    p.total_allocation_bytes = 72 * kMiB;
    v.push_back(p);
  }
  {
    WorkloadProfile p = Base("fj-kmeans", 108);
    p.small_object_fraction = 0.6;
    p.array_bytes_min = 512;
    p.survival_fraction = 0.06;
    p.live_window_bytes = 5 * kMiB;
    p.total_allocation_bytes = 80 * kMiB;
    v.push_back(p);
  }
  {
    WorkloadProfile p = Base("future-genetic", 109);
    p.survival_fraction = 0.05;
    p.live_window_bytes = 3 * kMiB;
    v.push_back(p);
  }
  {
    WorkloadProfile p = Base("gauss-mix", 110);
    p.small_object_fraction = 0.5;
    p.array_bytes_min = 1024;
    p.array_bytes_max = 8192;
    p.survival_fraction = 0.07;
    p.live_window_bytes = 6 * kMiB;
    p.total_allocation_bytes = 80 * kMiB;
    v.push_back(p);
  }
  // Logistic regression over cached datasets (also in Fig. 1).
  {
    WorkloadProfile p = Base("log-regression", 111);
    p.small_object_fraction = 0.55;
    p.array_bytes_min = 512;
    p.array_bytes_max = 8192;
    p.survival_fraction = 0.08;
    p.live_window_bytes = 8 * kMiB;
    p.total_allocation_bytes = 96 * kMiB;
    p.reads_per_alloc = 1.5;
    p.mutator_cache_hit = 0.85;
    v.push_back(p);
  }
  {
    WorkloadProfile p = Base("mnemonics", 112);
    p.small_object_fraction = 0.95;
    p.survival_fraction = 0.04;
    p.live_window_bytes = 2 * kMiB;
    p.total_allocation_bytes = 96 * kMiB;
    v.push_back(p);
  }
  // Recommender with heavy app-side reads but little allocation: GC-light,
  // app time barely changes DRAM->NVM (Fig. 1, Section 2.2).
  {
    WorkloadProfile p = Base("movie-lens", 113);
    p.total_allocation_bytes = 24 * kMiB;
    p.survival_fraction = 0.03;
    p.live_window_bytes = 2 * kMiB;
    p.reads_per_alloc = 2.0;
    p.mutator_cache_hit = 0.96;  // Hot similarity tables stay LLC-resident.
    v.push_back(p);
  }
  // Naive Bayes training: copies many large primitive arrays — sequential GC
  // reads, write-intensive write-back (Fig. 7c/7d).
  {
    WorkloadProfile p = Base("naive-bayes", 114);
    p.small_object_fraction = 0.25;
    p.array_bytes_min = 4096;
    p.array_bytes_max = 16384;
    p.ref_array_fraction = 0.05;
    p.survival_fraction = 0.10;
    p.live_window_bytes = 10 * kMiB;
    p.total_allocation_bytes = 112 * kMiB;
    v.push_back(p);
  }
  {
    WorkloadProfile p = Base("neo4j-analytics", 115);
    p.small_object_fraction = 0.7;
    p.small_ref_fields = 3;
    p.survival_fraction = 0.08;
    p.live_window_bytes = 8 * kMiB;
    p.total_allocation_bytes = 80 * kMiB;
    v.push_back(p);
  }
  {
    WorkloadProfile p = Base("par-mnemonics", 116);
    p.small_object_fraction = 0.95;
    p.survival_fraction = 0.04;
    p.live_window_bytes = 2 * kMiB;
    p.total_allocation_bytes = 96 * kMiB;
    v.push_back(p);
  }
  // Tiny live set, infrequent short pauses: one of the three applications
  // that do not benefit from the optimizations (Section 5.2).
  {
    WorkloadProfile p = Base("philosophers", 117);
    p.small_object_fraction = 0.97;
    p.survival_fraction = 0.015;
    p.live_window_bytes = 1 * kMiB;
    p.total_allocation_bytes = 48 * kMiB;
    v.push_back(p);
  }
  {
    WorkloadProfile p = Base("reactors", 118);
    p.small_object_fraction = 0.93;
    p.survival_fraction = 0.045;
    p.live_window_bytes = 3 * kMiB;
    p.total_allocation_bytes = 96 * kMiB;
    v.push_back(p);
  }
  {
    WorkloadProfile p = Base("rx-scrabble", 119);
    p.total_allocation_bytes = 16 * kMiB;
    p.survival_fraction = 0.02;
    p.live_window_bytes = 1 * kMiB;
    v.push_back(p);
  }
  {
    WorkloadProfile p = Base("scala-doku", 120);
    p.small_object_fraction = 0.95;
    p.survival_fraction = 0.025;
    p.live_window_bytes = 1536 * 1024;
    p.total_allocation_bytes = 56 * kMiB;
    v.push_back(p);
  }
  // STM torture test: the GC-intensive Renaissance app whose execution time
  // visibly improves with the optimizations (Section 5.4).
  {
    WorkloadProfile p = Base("scala-stm-bench7", 121);
    p.survival_fraction = 0.10;
    p.live_window_bytes = 8 * kMiB;
    p.total_allocation_bytes = 128 * kMiB;
    p.writes_per_alloc = 0.6;
    v.push_back(p);
  }
  {
    WorkloadProfile p = Base("scrabble", 122);
    p.total_allocation_bytes = 24 * kMiB;
    p.survival_fraction = 0.03;
    p.live_window_bytes = 1 * kMiB;
    v.push_back(p);
  }
  return v;
}

std::vector<WorkloadProfile> SparkProfiles() {
  std::vector<WorkloadProfile> v;
  // Spark RDD churn: floods of small immutable objects with high per-iteration
  // survival and long traversal chains through dataset lineage.
  {
    WorkloadProfile p = Base("page-rank", 201);
    p.small_object_fraction = 0.9;
    p.small_ref_fields = 2;
    p.survival_fraction = 0.25;
    p.live_window_bytes = 12 * kMiB;
    p.total_allocation_bytes = 160 * kMiB;
    p.reads_per_alloc = 1.5;
    p.writes_per_alloc = 0.5;
    p.mutator_cache_hit = 0.45;  // RDD scans blow past the LLC (Fig. 2b).
    v.push_back(p);
  }
  {
    WorkloadProfile p = Base("kmeans", 202);
    p.small_object_fraction = 0.7;
    p.array_bytes_min = 256;
    p.array_bytes_max = 1024;
    p.survival_fraction = 0.20;
    p.live_window_bytes = 10 * kMiB;
    p.total_allocation_bytes = 128 * kMiB;
    p.reads_per_alloc = 1.2;
    p.mutator_cache_hit = 0.50;
    v.push_back(p);
  }
  {
    WorkloadProfile p = Base("cc", 203);
    p.small_object_fraction = 0.85;
    p.survival_fraction = 0.14;
    p.live_window_bytes = 8 * kMiB;
    p.total_allocation_bytes = 112 * kMiB;
    p.reads_per_alloc = 1.0;
    v.push_back(p);
  }
  {
    WorkloadProfile p = Base("sssp", 204);
    p.small_object_fraction = 0.85;
    p.survival_fraction = 0.16;
    p.live_window_bytes = 9 * kMiB;
    p.total_allocation_bytes = 120 * kMiB;
    p.reads_per_alloc = 1.0;
    v.push_back(p);
  }
  return v;
}

std::vector<WorkloadProfile> AllApplicationProfiles() {
  std::vector<WorkloadProfile> all = RenaissanceProfiles();
  for (auto& p : SparkProfiles()) {
    all.push_back(p);
  }
  return all;
}

WorkloadProfile RenaissanceProfile(const std::string& name) {
  for (const auto& p : AllApplicationProfiles()) {
    if (p.name == name) {
      return p;
    }
  }
  CheckFailed(__FILE__, __LINE__, "false", ("unknown workload name: " + name).c_str());
}

}  // namespace nvmgc
