// Service-layer tests: fault-list sharding, the worker-count-invariance
// contract of run_sharded (the merged result is a pure function of the job,
// never of how many workers executed it), shard-snapshot resume, the warm
// StateStore cache carried across submissions, and the daemon's framing and
// request handling.
#include <gtest/gtest.h>

#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include <sys/stat.h>
#include <unistd.h>

#include "fault/faultlist.h"
#include "gen/registry.h"
#include "serialize/archive.h"
#include "service/daemon.h"
#include "service/shard.h"
#include "session/session.h"
#include "util/rng.h"

namespace gatpg {
namespace {

// ---------------------------------------------------------------------------
// Fault-list sharding

TEST(ShardPartition, RoundRobinCoversEveryFaultExactlyOnce) {
  const netlist::Circuit c = gen::make_circuit("s27");
  const fault::FaultList full = fault::collapse(c);
  const unsigned shards = 3;
  std::size_t total = 0;
  for (unsigned s = 0; s < shards; ++s) {
    const fault::FaultList part = service::shard_fault_list(full, shards, s);
    total += part.size();
    for (std::size_t p = 0; p < part.size(); ++p) {
      const std::size_t i = p * shards + s;
      EXPECT_EQ(part.faults[p], full.faults[i]);
      EXPECT_EQ(part.class_sizes[p], full.class_sizes[i]);
    }
  }
  EXPECT_EQ(total, full.size());
}

TEST(ShardPartition, SingleShardIsTheFullList) {
  const netlist::Circuit c = gen::make_circuit("s27");
  const fault::FaultList full = fault::collapse(c);
  const fault::FaultList part = service::shard_fault_list(full, 1, 0);
  EXPECT_EQ(fault::identity_digest(part), fault::identity_digest(full));
}

// ---------------------------------------------------------------------------
// run_sharded

/// Deterministic two-pass schedule (bounded by backtracks and generations,
/// never by wall clock) so sharded runs can be compared bit-for-bit.
hybrid::HybridConfig cheap_config() {
  hybrid::HybridConfig cfg;
  session::PassConfig ga;
  ga.mode = session::JustifyMode::kGenetic;
  ga.time_limit_s = 1000.0;
  ga.max_backtracks = 200;
  ga.ga_population = 64;
  ga.ga_generations = 2;
  ga.seq_len_multiplier = 2.0;
  session::PassConfig det;
  det.mode = session::JustifyMode::kDeterministic;
  det.time_limit_s = 1000.0;
  det.max_backtracks = 200;
  cfg.schedule.passes = {ga, det};
  cfg.max_solutions_per_fault = 4;
  cfg.seed = 11;
  cfg.state_store.enabled = true;
  return cfg;
}

TEST(RunSharded, WorkerCountNeverChangesTheMergedResult) {
  const netlist::Circuit c = gen::make_circuit("s27");
  const fault::FaultList full = fault::collapse(c);

  std::vector<service::ShardedResult> runs;
  for (const unsigned workers : {1u, 2u, 4u}) {
    service::ShardJobConfig job;
    job.shards = 4;
    job.workers = workers;
    job.hybrid = cheap_config();
    runs.push_back(service::run_sharded(c, full, job));
  }
  const session::SessionResult& ref = runs[0].merged;
  EXPECT_GT(ref.detected(), 0u);
  for (std::size_t i = 1; i < runs.size(); ++i) {
    SCOPED_TRACE("workers variant " + std::to_string(i));
    const session::SessionResult& got = runs[i].merged;
    EXPECT_EQ(got.digests.faults, ref.digests.faults);
    EXPECT_EQ(got.digests.tests, ref.digests.tests);
    EXPECT_EQ(got.digests.store, ref.digests.store);
    EXPECT_EQ(got.fault_state, ref.fault_state);
    EXPECT_EQ(got.test_set, ref.test_set);
    EXPECT_EQ(got.segments, ref.segments);
    ASSERT_EQ(runs[i].per_shard.size(), runs[0].per_shard.size());
    for (std::size_t s = 0; s < runs[i].per_shard.size(); ++s) {
      EXPECT_EQ(runs[i].per_shard[s].digests.faults,
                runs[0].per_shard[s].digests.faults);
      EXPECT_EQ(runs[i].per_shard[s].digests.tests,
                runs[0].per_shard[s].digests.tests);
    }
  }
}

TEST(RunSharded, MergeInterleavesStatusesAndConcatenatesTests) {
  const netlist::Circuit c = gen::make_circuit("s27");
  const fault::FaultList full = fault::collapse(c);
  service::ShardJobConfig job;
  job.shards = 2;
  job.workers = 1;
  job.hybrid = cheap_config();

  std::vector<service::ShardEvent> events;
  const service::ShardedResult result = service::run_sharded(
      c, full, job, [&](const service::ShardEvent& e) { events.push_back(e); });

  EXPECT_EQ(result.merged.total_faults, full.size());
  ASSERT_EQ(result.per_shard.size(), 2u);
  for (std::size_t i = 0; i < full.size(); ++i) {
    EXPECT_EQ(result.merged.fault_state[i],
              result.per_shard[i % 2].fault_state[i / 2]);
  }
  sim::Sequence concat = result.per_shard[0].test_set;
  concat.insert(concat.end(), result.per_shard[1].test_set.begin(),
                result.per_shard[1].test_set.end());
  EXPECT_EQ(result.merged.test_set, concat);
  EXPECT_EQ(result.merged.detected(), result.per_shard[0].detected() +
                                          result.per_shard[1].detected());
  // Every shard reported every pass (events arrive on worker threads; with
  // workers=1 they are strictly ordered).
  EXPECT_EQ(events.size(),
            job.hybrid.schedule.passes.size() * job.shards);
}

TEST(RunSharded, ResumesFromShardSnapshots) {
  const netlist::Circuit c = gen::make_circuit("s27");
  const fault::FaultList full = fault::collapse(c);
  const std::string base = testing::TempDir() + "sharded_resume.snap";
  for (unsigned s = 0; s < 2; ++s) {
    std::remove((base + ".shard" + std::to_string(s)).c_str());
  }

  service::ShardJobConfig job;
  job.shards = 2;
  job.workers = 2;
  job.hybrid = cheap_config();
  job.checkpoint_path = base;
  job.checkpoint_every_ticks = 1;
  const service::ShardedResult first = service::run_sharded(c, full, job);

  // Re-running with resume=true picks each shard up from its last snapshot
  // and must land on the same final state the first run reached.
  job.resume = true;
  const service::ShardedResult second = service::run_sharded(c, full, job);
  EXPECT_EQ(second.merged.digests.faults, first.merged.digests.faults);
  EXPECT_EQ(second.merged.digests.tests, first.merged.digests.tests);
  EXPECT_EQ(second.merged.digests.store, first.merged.digests.store);
  EXPECT_EQ(second.merged.fault_state, first.merged.fault_state);
  EXPECT_EQ(second.merged.test_set, first.merged.test_set);

  for (unsigned s = 0; s < 2; ++s) {
    std::remove((base + ".shard" + std::to_string(s)).c_str());
  }
}

TEST(RunSharded, UnwritableCheckpointPathThrowsInsteadOfTerminating) {
  // An auto-checkpoint into a nonexistent directory fails on a worker
  // thread; the exception must surface to the caller as a SnapshotError
  // (the daemon turns it into an error event), never std::terminate.
  const netlist::Circuit c = gen::make_circuit("s27");
  const fault::FaultList full = fault::collapse(c);
  service::ShardJobConfig job;
  job.shards = 2;
  job.workers = 2;
  job.hybrid = cheap_config();
  job.checkpoint_path = testing::TempDir() + "no_such_dir_xyz/job.snap";
  job.checkpoint_every_ticks = 1;
  EXPECT_THROW(service::run_sharded(c, full, job), serialize::SnapshotError);
}

// ---------------------------------------------------------------------------
// Warm StateStore cache

TEST(WarmStoreCache, CarriesStoreKnowledgeAcrossSessions) {
  using sim::V3;
  const netlist::Circuit c = gen::make_circuit("s27");
  const fault::FaultList full = fault::collapse(c);
  const std::uint64_t key = fault::identity_digest(full);

  session::SessionConfig scfg;
  scfg.state_store.enabled = true;
  service::WarmStoreCache cache;

  session::Session a(c, full, scfg);
  EXPECT_FALSE(cache.seed(a, 1, 0, key));  // nothing captured yet

  sim::State3 cube(c.flip_flops().size(), V3::kX);
  cube[0] = V3::k1;
  a.state_store().record_unjustifiable(cube);
  sim::State3 cube2(c.flip_flops().size(), V3::kX);
  cube2[0] = V3::k0;
  sim::Sequence seq(1, sim::Vector3(c.primary_inputs().size(), V3::k0));
  a.state_store().record_justified(cube2, seq);
  cache.capture(a, 1, 0, key);
  EXPECT_EQ(cache.size(), 1u);

  // Same circuit revision: the store is restored verbatim.
  session::Session b(c, full, scfg);
  EXPECT_TRUE(cache.seed(b, 1, 0, key));
  EXPECT_EQ(b.state_store().digest(), a.state_store().digest());

  // Different revision (same interface): netlist-specific proofs are
  // dropped, re-verifiable knowledge survives.
  session::Session d(c, full, scfg);
  EXPECT_TRUE(cache.seed(d, 1, 0, key ^ 1));
  EXPECT_EQ(d.state_store().unjustifiable_size(), 0u);
  EXPECT_EQ(d.state_store().justified_size(), 1u);
}

TEST(WarmStoreCache, DisabledStoreIsNeverCaptured) {
  const netlist::Circuit c = gen::make_circuit("s27");
  const fault::FaultList full = fault::collapse(c);
  session::Session s(c, full, {});
  service::WarmStoreCache cache;
  cache.capture(s, 1, 0, fault::identity_digest(full));
  EXPECT_EQ(cache.size(), 0u);
}

// ---------------------------------------------------------------------------
// Daemon framing and request handling

std::string drain(std::FILE* f) {
  std::fflush(f);
  const long size = std::ftell(f);
  std::rewind(f);
  std::string out(static_cast<std::size_t>(size), '\0');
  const std::size_t got = std::fread(out.data(), 1, out.size(), f);
  out.resize(got);
  return out;
}

TEST(DaemonFrames, RoundTrip) {
  std::FILE* f = std::tmpfile();
  ASSERT_NE(f, nullptr);
  service::write_frame(f, "hello world");
  service::write_frame(f, "");
  std::rewind(f);
  std::string payload;
  ASSERT_TRUE(service::read_frame(f, &payload));
  EXPECT_EQ(payload, "hello world");
  ASSERT_TRUE(service::read_frame(f, &payload));
  EXPECT_EQ(payload, "");
  EXPECT_FALSE(service::read_frame(f, &payload));  // clean EOF
  std::fclose(f);
}

TEST(DaemonFrames, TruncatedAndOversizedFramesThrow) {
  {
    std::FILE* f = std::tmpfile();
    ASSERT_NE(f, nullptr);
    const unsigned char header[4] = {10, 0, 0, 0};  // claims 10 bytes
    std::fwrite(header, 1, 4, f);
    std::fwrite("abc", 1, 3, f);  // delivers 3
    std::rewind(f);
    std::string payload;
    EXPECT_THROW(service::read_frame(f, &payload), std::runtime_error);
    std::fclose(f);
  }
  {
    std::FILE* f = std::tmpfile();
    ASSERT_NE(f, nullptr);
    const unsigned char header[4] = {0, 0, 0x20, 0};  // 2 MiB > limit
    std::fwrite(header, 1, 4, f);
    std::rewind(f);
    std::string payload;
    EXPECT_THROW(service::read_frame(f, &payload), std::runtime_error);
    std::fclose(f);
  }
}

TEST(Daemon, StatusQuitAndUnknownCommands) {
  std::FILE* in = std::tmpfile();
  std::FILE* out = std::tmpfile();
  ASSERT_NE(out, nullptr);
  service::Daemon daemon({}, in, out);
  EXPECT_TRUE(daemon.handle_request("status"));
  EXPECT_TRUE(daemon.handle_request("bogus x=1"));
  EXPECT_FALSE(daemon.handle_request("quit"));

  const std::string log = drain(out);
  EXPECT_NE(log.find("\"event\":\"status\""), std::string::npos);
  EXPECT_NE(log.find("\"jobs_done\":0"), std::string::npos);
  EXPECT_NE(log.find("unknown command: bogus"), std::string::npos);
  std::fclose(in);
  std::fclose(out);
}

TEST(Daemon, SubmitValidation) {
  std::FILE* in = std::tmpfile();
  std::FILE* out = std::tmpfile();
  ASSERT_NE(out, nullptr);
  service::Daemon daemon({}, in, out);
  EXPECT_TRUE(daemon.handle_request("submit"));  // missing circuit=
  EXPECT_TRUE(daemon.handle_request("submit circuit=no_such_circuit"));
  EXPECT_TRUE(daemon.handle_request("submit circuit=s27 engine=warp"));

  const std::string log = drain(out);
  EXPECT_NE(log.find("submit requires circuit=<name>"), std::string::npos);
  EXPECT_NE(log.find("no_such_circuit"), std::string::npos);
  EXPECT_NE(log.find("unknown engine: warp"), std::string::npos);
  std::fclose(in);
  std::fclose(out);
}

TEST(Daemon, SubmitRunsShardedJobAndStreamsEvents) {
  std::FILE* in = std::tmpfile();
  std::FILE* out = std::tmpfile();
  ASSERT_NE(out, nullptr);
  service::Daemon daemon({}, in, out);
  EXPECT_TRUE(daemon.handle_request(
      "submit job=t1 circuit=s27 shards=2 workers=2 time_scale=0.005 "
      "pass_budget=0.5 seed=3"));
  EXPECT_TRUE(daemon.handle_request("status"));

  const std::string log = drain(out);
  EXPECT_NE(log.find("\"event\":\"accepted\""), std::string::npos);
  EXPECT_NE(log.find("\"job\":\"t1\""), std::string::npos);
  EXPECT_NE(log.find("\"event\":\"pass\""), std::string::npos);
  EXPECT_NE(log.find("\"event\":\"done\""), std::string::npos);
  EXPECT_NE(log.find("\"digest_faults\":\""), std::string::npos);
  EXPECT_NE(log.find("\"jobs_done\":1"), std::string::npos);
  // The job's two shard stores stay warm for the next submission.
  EXPECT_EQ(daemon.warm_cache().size(), 2u);
  std::fclose(in);
  std::fclose(out);
}

TEST(Daemon, CheckpointFailureEmitsErrorEventAndKeepsServing) {
  std::FILE* in = std::tmpfile();
  std::FILE* out = std::tmpfile();
  ASSERT_NE(out, nullptr);
  service::Daemon daemon({}, in, out);
  EXPECT_TRUE(daemon.handle_request(
      "submit circuit=s27 every_ticks=1 checkpoint=" + testing::TempDir() +
      "missing_dir_for_atpgd/job.snap"));
  EXPECT_TRUE(daemon.handle_request("status"));

  const std::string log = drain(out);
  EXPECT_NE(log.find("\"event\":\"error\""), std::string::npos);
  EXPECT_NE(log.find("\"event\":\"status\""), std::string::npos);
  std::fclose(in);
  std::fclose(out);
}

TEST(Daemon, CreatesConfiguredCheckpointDir) {
  const std::string dir = testing::TempDir() + "atpgd_ckpt_dir";
  ::rmdir(dir.c_str());
  std::FILE* in = std::tmpfile();
  std::FILE* out = std::tmpfile();
  ASSERT_NE(out, nullptr);
  service::DaemonConfig config;
  config.checkpoint_dir = dir;
  service::Daemon daemon(config, in, out);
  struct stat st {};
  EXPECT_EQ(::stat(dir.c_str(), &st), 0);
  EXPECT_TRUE(S_ISDIR(st.st_mode));
  std::fclose(in);
  std::fclose(out);
  ::rmdir(dir.c_str());
}

}  // namespace
}  // namespace gatpg
