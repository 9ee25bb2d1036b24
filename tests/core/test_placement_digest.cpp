// Placement digest: pins every scheme's plan on the inputs the figures and
// the benchmark place. Each case hashes, per object, its primary tape and
// its replica tapes; per tape, (object, offset) in offset order; and the
// mount policy's initial mounts, pinned drives and tape popularity (doubles
// by bit pattern). A speed-up of a placement scheme must leave every digest
// unchanged: a digest moves only when a plan does, and a change that
// updates a pinned value says why in CHANGES.md.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <ios>
#include <vector>

#include "cluster/hierarchy.hpp"
#include "core/cluster_probability.hpp"
#include "core/incremental.hpp"
#include "core/object_probability.hpp"
#include "core/parallel_batch.hpp"
#include "core/replication.hpp"
#include "workload/generator.hpp"
#include "workload/merge.hpp"

namespace tapesim::core {
namespace {

/// FNV-1a over the bytes of every value folded in.
class Digest {
 public:
  void u(std::uint64_t v) {
    const auto* p = reinterpret_cast<const unsigned char*>(&v);
    for (std::size_t i = 0; i < sizeof v; ++i) {
      hash_ ^= p[i];
      hash_ *= 0x100000001B3ULL;
    }
  }
  void f(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u(bits);
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;
};

void add_plan(Digest& h, const PlacementPlan& plan) {
  const std::uint32_t objects = plan.workload().object_count();
  h.u(objects);
  for (std::uint32_t i = 0; i < objects; ++i) {
    const ObjectId o{i};
    h.u(plan.tape_of(o).value());
    const auto replicas = plan.replicas_of(o);
    h.u(replicas.size());
    for (const TapeId t : replicas) h.u(t.value());
  }
  const std::uint32_t tapes = plan.spec().total_tapes();
  h.u(tapes);
  for (std::uint32_t t = 0; t < tapes; ++t) {
    const auto placed = plan.on_tape(TapeId{t});
    h.u(placed.size());
    for (const PlacedObject& p : placed) {
      h.u(p.object.value());
      h.u(p.offset.count());
    }
  }
  const MountPolicy& mounts = plan.mount_policy;
  h.u(static_cast<std::uint64_t>(mounts.replacement));
  h.u(mounts.initial_mounts.size());
  for (const auto& [drive, tape] : mounts.initial_mounts) {
    h.u(drive.value());
    h.u(tape.value());
  }
  h.u(mounts.drive_pinned.size());
  for (const bool pinned : mounts.drive_pinned) h.u(pinned ? 1U : 0U);
  h.u(mounts.tape_popularity.size());
  for (const double p : mounts.tape_popularity) h.f(p);
}

std::uint64_t plan_digest(const PlacementPlan& plan) {
  Digest h;
  add_plan(h, plan);
  return h.value();
}

/// A generated workload and its request clusters, capped at `max_bytes`
/// (0 = unbounded).
struct Inputs {
  tape::SystemSpec spec;
  workload::Workload workload;
  cluster::ObjectClusters clusters;

  Inputs(tape::SystemSpec s, const workload::WorkloadConfig& config,
         Rng rng, Bytes max_bytes)
      : spec(s),
        workload(workload::generate_workload(config, rng)),
        clusters(cluster::cluster_by_requests(
            workload, cluster::ClusterConstraints{0.0, 0, max_bytes})) {}

  [[nodiscard]] PlacementContext context() const {
    return {&workload, &spec, &clusters};
  }
};

/// k * C_t, the clustering cap the figures and the benchmark use.
Bytes planned_cap(const tape::SystemSpec& spec) {
  return Bytes{static_cast<Bytes::value_type>(
      0.9 * spec.library.tape_capacity.as_double())};
}

/// exp::Experiment's inputs at its default seed, 42.
Inputs experiment_inputs(tape::SystemSpec spec,
                         const workload::WorkloadConfig& config) {
  return Inputs(spec, config, Rng{42}.fork(0x574C), planned_cap(spec));
}

std::uint64_t pbp_digest(const Inputs& in, ParallelBatchParams params) {
  return plan_digest(ParallelBatchPlacement(params).place(in.context()));
}

/// bench_incremental: four generations of 7,000 objects, each round placed
/// append-only behind the previous round's plan.
std::uint64_t incremental_digest() {
  const tape::SystemSpec spec = tape::SystemSpec::paper_default();
  workload::WorkloadConfig config = workload::WorkloadConfig::paper_default();
  config.num_objects = 7000;
  config.num_requests = 100;
  config.object_groups = 50;
  const cluster::ClusterConstraints constraints{0.0, 0, planned_cap(spec)};
  const IncrementalParallelBatch incremental{IncrementalParams{}};

  Digest h;
  Rng seed_rng{42};
  std::vector<workload::Workload> cumulative;
  std::vector<PlacementPlan> plans;
  cumulative.reserve(4);
  plans.reserve(4);
  for (std::uint32_t round = 0; round < 4; ++round) {
    Rng gen_rng = seed_rng.fork(round + 1);
    workload::Workload generation = workload::generate_workload(config, gen_rng);
    std::uint32_t first_new = 0;
    if (round == 0) {
      cumulative.push_back(std::move(generation));
    } else {
      first_new = cumulative.back().object_count();
      cumulative.push_back(workload::merge_workloads(
          cumulative.back(), generation,
          1.0 / static_cast<double>(round + 1)));
    }
    const cluster::ObjectClusters clusters =
        cluster::cluster_by_requests(cumulative.back(), constraints);
    const PlacementContext context{&cumulative.back(), &spec, &clusters};
    if (round == 0) {
      plans.push_back(incremental.place_initial(context));
    } else {
      plans.push_back(
          incremental.place_next(context, plans.back(), ObjectId{first_new}));
    }
    add_plan(h, plans.back());
  }
  return h.value();
}

struct Pin {
  const char* name;
  std::uint64_t digest;
};

TEST(PlacementDigest, SchemesReproducePinnedPlans) {
  static constexpr Pin kPins[] = {
      {"pbp m=1", 0x296D4AFB40DD87C3ULL},
      {"pbp m=2", 0x8635F33C13DD4C6DULL},
      {"pbp m=3", 0xAD0A6A320C6AF436ULL},
      {"pbp m=4", 0x3412AF6E1D583D63ULL},
      {"pbp m=5", 0x22FCE1017734DA1EULL},
      {"pbp m=6", 0xB48C57A7607BF64CULL},
      {"pbp m=7", 0xDD3F79BF47CCC080ULL},
      {"pbp round-robin", 0xC76D831A2966194AULL},
      {"pbp first-fit", 0x5E2C16E74A060766ULL},
      {"pbp least-loaded", 0x1B3D3D5B4ADEA08DULL},
      {"pbp refinement off", 0xB9844FCABB686871ULL},
      {"pbp 6 libraries", 0x3A849E672CFB0EA3ULL},
      {"pbp oversized clusters", 0x136AAA24FD388C0BULL},
      {"incremental", 0xC20814D06516D5F9ULL},
      {"replicated pbp", 0xE4FAF96C6AC23E99ULL},
      {"opp by density", 0x2A06BD1C9923EDFCULL},
      {"opp by probability", 0x2A109D919A4AD2C3ULL},
      {"cpp", 0x35917031379E813EULL},
  };
  std::vector<std::uint64_t> got;

  // Figure 5's sweep of m, then m = 4 (the paper's choice) with every
  // balancer policy and with Step 4's refinement off.
  const tape::SystemSpec paper = tape::SystemSpec::paper_default();
  const Inputs fleet =
      experiment_inputs(paper, workload::WorkloadConfig::paper_default());
  for (std::uint32_t m = 1; m <= 7; ++m) {
    ParallelBatchParams params;
    params.switch_drives = m;
    got.push_back(pbp_digest(fleet, params));
  }
  for (const BalancePolicy policy :
       {BalancePolicy::kRoundRobin, BalancePolicy::kFirstFit,
        BalancePolicy::kLeastLoaded}) {
    ParallelBatchParams params;
    params.balance.policy = policy;
    got.push_back(pbp_digest(fleet, params));
  }
  {
    ParallelBatchParams params;
    params.cluster_refinement = false;
    got.push_back(pbp_digest(fleet, params));
  }

  // Figure 8's largest point: 6 libraries, 60,000 objects.
  {
    tape::SystemSpec spec = paper;
    spec.num_libraries = 6;
    workload::WorkloadConfig config =
        workload::WorkloadConfig::paper_default().with_average_request_size(
            Bytes{240ULL * 1000 * 1000 * 1000});
    config.num_objects = 60'000;
    config.object_groups = config.num_objects / 150;
    got.push_back(pbp_digest(experiment_inputs(spec, config), {}));
  }

  // Unbounded clusters on one library with m = 2 of 8 drives: a switch
  // batch holds 2 tapes (720 GB), requests average 1 TB, so clusters
  // outgrow a batch and place() splits them (166 times here).
  {
    tape::SystemSpec spec = paper;
    spec.num_libraries = 1;
    workload::WorkloadConfig config =
        workload::WorkloadConfig::paper_default().with_average_request_size(
            Bytes{1000ULL * 1000 * 1000 * 1000});
    config.num_objects = 2'500;
    config.num_requests = 40;
    config.object_groups = config.num_objects / 150;
    const Inputs in(spec, config, Rng{42}.fork(0x574C), Bytes{0});
    ParallelBatchParams params;
    params.switch_drives = 2;
    got.push_back(pbp_digest(in, params));
  }

  got.push_back(incremental_digest());

  // The degraded_repair benchmark's plan: two copies over PBP.
  {
    workload::WorkloadConfig config = workload::WorkloadConfig::paper_default();
    config.num_objects = 4'000;
    const Inputs in(paper, config, Rng{42}.split("workload"),
                    planned_cap(paper));
    const ParallelBatchPlacement pbp;
    got.push_back(
        plan_digest(ReplicationPolicy(pbp, {}).place(in.context())));
  }

  for (const bool by_density : {true, false}) {
    ObjectProbabilityParams params;
    params.sort_by_density = by_density;
    got.push_back(plan_digest(
        ObjectProbabilityPlacement(params).place(fleet.context())));
  }
  got.push_back(
      plan_digest(ClusterProbabilityPlacement{}.place(fleet.context())));

  ASSERT_EQ(got.size(), std::size(kPins));
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], kPins[i].digest)
        << kPins[i].name << " digest is 0x" << std::hex << std::uppercase
        << got[i];
  }
}

}  // namespace
}  // namespace tapesim::core
