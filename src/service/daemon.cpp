#include "service/daemon.h"

#include <sys/stat.h>

#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <vector>

#include "gen/registry.h"
#include "serialize/archive.h"

namespace gatpg::service {

namespace {

constexpr std::size_t kMaxFrame = 1 << 20;  // requests are tiny commands

std::string to_hex(std::uint64_t v) {
  static const char* digits = "0123456789abcdef";
  std::string s(16, '0');
  for (int i = 15; i >= 0; --i) {
    s[static_cast<std::size_t>(i)] = digits[v & 0xf];
    v >>= 4;
  }
  return s;
}

/// Splits "<command> key=value ..." on single spaces.
std::string parse_request(const std::string& request,
                          std::map<std::string, std::string>* args) {
  std::string command;
  std::size_t pos = 0;
  while (pos < request.size()) {
    std::size_t end = request.find(' ', pos);
    if (end == std::string::npos) end = request.size();
    const std::string token = request.substr(pos, end - pos);
    pos = end + 1;
    if (token.empty()) continue;
    if (command.empty()) {
      command = token;
      continue;
    }
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos) {
      (*args)[token] = "1";  // bare flag
    } else {
      (*args)[token.substr(0, eq)] = token.substr(eq + 1);
    }
  }
  return command;
}

double arg_f(const std::map<std::string, std::string>& args,
             const std::string& key, double fallback) {
  const auto it = args.find(key);
  return it == args.end() ? fallback : std::atof(it->second.c_str());
}

long arg_l(const std::map<std::string, std::string>& args,
           const std::string& key, long fallback) {
  const auto it = args.find(key);
  return it == args.end() ? fallback : std::atol(it->second.c_str());
}

std::string arg_s(const std::map<std::string, std::string>& args,
                  const std::string& key, const std::string& fallback) {
  const auto it = args.find(key);
  return it == args.end() ? fallback : it->second;
}

}  // namespace

bool read_frame(std::FILE* in, std::string* payload) {
  unsigned char len_bytes[4];
  const std::size_t got = std::fread(len_bytes, 1, 4, in);
  if (got == 0) return false;  // clean EOF between frames
  if (got != 4) throw std::runtime_error("truncated frame length");
  std::size_t n = 0;
  for (int i = 3; i >= 0; --i) n = (n << 8) | len_bytes[i];
  if (n > kMaxFrame) throw std::runtime_error("oversized frame");
  payload->resize(n);
  if (n > 0 && std::fread(payload->data(), 1, n, in) != n) {
    throw std::runtime_error("truncated frame payload");
  }
  return true;
}

void write_frame(std::FILE* out, const std::string& payload) {
  unsigned char len_bytes[4];
  for (int i = 0; i < 4; ++i) {
    len_bytes[i] = static_cast<unsigned char>(payload.size() >> (8 * i));
  }
  std::fwrite(len_bytes, 1, 4, out);
  std::fwrite(payload.data(), 1, payload.size(), out);
  std::fflush(out);
}

Daemon::Daemon(DaemonConfig config, std::FILE* in, std::FILE* out)
    : config_(std::move(config)), in_(in), out_(out) {
  // Best-effort: make sure the default snapshot directory exists before the
  // first job tries to auto-checkpoint into it.  If it still can't be
  // written to, the submit fails with an error event, not a crash.
  if (!config_.checkpoint_dir.empty()) {
    ::mkdir(config_.checkpoint_dir.c_str(), 0777);
  }
}

void Daemon::emit(util::JsonWriter& line) {
  const std::lock_guard<std::mutex> lock(out_mu_);
  std::fwrite(line.str().data(), 1, line.str().size(), out_);
  std::fputc('\n', out_);
  std::fflush(out_);
}

void Daemon::emit_error(const std::string& message) {
  util::JsonWriter w;
  w.begin_object().field("event", "error").field("message", message)
      .end_object();
  emit(w);
}

int Daemon::serve() {
  {
    util::JsonWriter w;
    w.begin_object()
        .field("event", "ready")
        .field("protocol", 1)
        .end_object();
    emit(w);
  }
  std::string request;
  while (true) {
    try {
      if (!read_frame(in_, &request)) break;
    } catch (const std::exception& e) {
      emit_error(e.what());
      return 1;
    }
    if (!handle_request(request)) break;
  }
  util::JsonWriter w;
  w.begin_object().field("event", "bye").end_object();
  emit(w);
  return 0;
}

bool Daemon::handle_request(const std::string& request) {
  Args args;
  const std::string command = parse_request(request, &args);
  if (command == "quit") return false;
  if (command == "status") {
    handle_status();
    return true;
  }
  if (command == "submit") {
    try {
      handle_submit(args);
    } catch (const std::exception& e) {
      emit_error(e.what());
    }
    return true;
  }
  emit_error("unknown command: " + command);
  return true;
}

void Daemon::handle_status() {
  util::JsonWriter w;
  w.begin_object()
      .field("event", "status")
      .field("jobs_done", jobs_done_)
      .field("warm_entries", warm_.size())
      .end_object();
  emit(w);
}

void Daemon::handle_submit(const Args& args) {
  const std::string circuit_name = arg_s(args, "circuit", "");
  if (circuit_name.empty()) {
    emit_error("submit requires circuit=<name>");
    return;
  }
  const std::string job_id =
      arg_s(args, "job", "job" + std::to_string(next_job_id_));
  ++next_job_id_;

  ShardJobConfig job;
  job.shards = static_cast<unsigned>(std::max(1L, arg_l(args, "shards", 1)));
  job.workers = static_cast<unsigned>(std::max(0L, arg_l(args, "workers", 1)));

  const std::string engine = arg_s(args, "engine", "ga-hitec");
  const double time_scale = arg_f(args, "time_scale", 0.01);
  if (engine == "ga-hitec") {
    job.hybrid.schedule = session::PassSchedule::ga_hitec(time_scale);
  } else if (engine == "hitec") {
    job.hybrid.schedule = session::PassSchedule::hitec(time_scale);
  } else {
    emit_error("unknown engine: " + engine);
    return;
  }
  const double pass_budget = arg_f(args, "pass_budget", 2.0);
  const double time_limit = arg_f(args, "time_limit", 0.0);
  const long backtracks = arg_l(args, "backtracks", 0);
  for (auto& pass : job.hybrid.schedule.passes) {
    pass.pass_budget_s = pass_budget;
    // time_limit > 0 caps each pass; a negative value clears any wall limit
    // the schedule baked in (required for speculative targeting lanes, which
    // only engage on deadline-free passes).
    if (time_limit != 0.0) pass.time_limit_s = std::max(0.0, time_limit);
    if (backtracks > 0) pass.max_backtracks = backtracks;
  }
  job.hybrid.seed = static_cast<std::uint64_t>(arg_l(args, "seed", 1));
  job.hybrid.parallel.threads =
      static_cast<unsigned>(std::max(0L, arg_l(args, "threads", 1)));
  job.hybrid.target_parallel.lanes =
      static_cast<unsigned>(std::max(0L, arg_l(args, "lanes", 1)));
  job.max_pool_threads =
      static_cast<unsigned>(std::max(0L, arg_l(args, "pool_budget", 0)));
  job.hybrid.state_store.enabled = arg_l(args, "store", 1) != 0;

  const std::string model_name = arg_s(args, "fault_model", "stuck_at");
  if (!fault::parse_universe(model_name, &job.hybrid.fault_model)) {
    emit_error("unknown fault_model: " + model_name);
    return;
  }

  job.checkpoint_path = arg_s(args, "checkpoint", "");
  if (job.checkpoint_path.empty() && !config_.checkpoint_dir.empty()) {
    job.checkpoint_path = config_.checkpoint_dir + "/" + job_id + ".snap";
  }
  job.checkpoint_interval_s =
      arg_f(args, "interval", config_.default_interval_s);
  job.checkpoint_every_ticks = arg_l(args, "every_ticks", 0);
  job.resume = arg_l(args, "resume", 0) != 0;

  const netlist::Circuit c = gen::make_circuit(circuit_name);
  const fault::FaultList faults = fault::collapse(c, job.hybrid.fault_model);
  {
    util::JsonWriter w;
    w.begin_object()
        .field("event", "accepted")
        .field("job", job_id)
        .field("circuit", circuit_name)
        .field("engine", engine)
        .field("fault_model", fault::universe_name(job.hybrid.fault_model))
        .field("shards", job.shards)
        .field("workers", job.workers)
        .field("faults", faults.size())
        .field("resume", job.resume)
        .end_object();
    emit(w);
  }

  const ShardEventFn events = [&](const ShardEvent& e) {
    util::JsonWriter w;
    w.begin_object()
        .field("event", "pass")
        .field("job", job_id)
        .field("shard", e.shard)
        .field("pass", e.pass_index)
        .field("detected", e.outcome.detected)
        .field("vectors", e.outcome.vectors)
        .field("untestable", e.outcome.untestable)
        .field("time_s", e.outcome.time_s)
        .end_object();
    emit(w);
  };
  const ShardedResult result = run_sharded(c, faults, job, events, &warm_);
  ++jobs_done_;

  util::JsonWriter w;
  w.begin_object()
      .field("event", "done")
      .field("job", job_id)
      .field("faults", result.merged.total_faults)
      .field("detected", result.merged.detected())
      .field("untestable", result.merged.untestable())
      .field("vectors", result.merged.test_set.size())
      .field("rounds", result.merged.rounds)
      .field("digest_faults", to_hex(result.merged.digests.faults))
      .field("digest_tests", to_hex(result.merged.digests.tests))
      .field("digest_store", to_hex(result.merged.digests.store))
      .field("warm_entries", warm_.size())
      .end_object();
  emit(w);
}

}  // namespace gatpg::service
