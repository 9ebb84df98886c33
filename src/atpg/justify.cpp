#include "atpg/justify.h"

#include <algorithm>

namespace gatpg::atpg {

using sim::State3;
using sim::V3;

namespace {

/// The nodes `goals` constrain: the search reads nothing outside their
/// fan-in cone, so its model keeps only that cone (FrameModel::reset()).
std::vector<netlist::NodeId> goal_nodes(const std::vector<Objective>& goals) {
  std::vector<netlist::NodeId> nodes;
  nodes.reserve(goals.size());
  for (const Objective& g : goals) nodes.push_back(g.node);
  return nodes;
}

}  // namespace

FrameGoalSearch::FrameGoalSearch(const netlist::Circuit& c,
                                 std::vector<Objective> goals,
                                 FrameModelPool* pool)
    : model_h_(pool ? pool->acquire(std::nullopt, 1, goal_nodes(goals))
                    : FrameModelPool::standalone(c, std::nullopt, 1,
                                                 goal_nodes(goals))),
      model_(*model_h_),
      stack_(model_),
      goals_(std::move(goals)) {}

bool FrameGoalSearch::conflict() const {
  return std::any_of(goals_.begin(), goals_.end(), [&](const Objective& g) {
    const V3 v = model_.good(0, g.node);
    return v != V3::kX && v != g.value;
  });
}

bool FrameGoalSearch::satisfied() const {
  return std::all_of(goals_.begin(), goals_.end(), [&](const Objective& g) {
    return model_.good(0, g.node) == g.value;
  });
}

bool FrameGoalSearch::pick_objective(Objective& obj) const {
  for (const Objective& g : goals_) {
    if (model_.good(0, g.node) == V3::kX) {
      obj = g;
      return true;
    }
  }
  return false;
}

void FrameGoalSearch::flush_stats(SearchStats& stats) {
  const std::uint64_t gate_evals = model_.stats().gate_evals;
  const std::uint64_t events = model_.stats().events;
  stats.gate_evals += static_cast<long>(gate_evals - synced_gate_evals_);
  stats.events += static_cast<long>(events - synced_events_);
  synced_gate_evals_ = gate_evals;
  synced_events_ = events;
}

FrameGoalSearch::Step FrameGoalSearch::next(const util::Deadline& deadline,
                                            long max_backtracks,
                                            SearchStats& stats) {
  const Step step = advance(deadline, max_backtracks, stats);
  flush_stats(stats);
  return step;
}

FrameGoalSearch::Step FrameGoalSearch::advance(const util::Deadline& deadline,
                                               long max_backtracks,
                                               SearchStats& stats) {
  if (started_ && !stack_.backtrack(stats)) return Step::kExhausted;
  started_ = true;
  for (;;) {
    if (deadline.expired() || stats.backtracks > max_backtracks) {
      stats.clipped = true;
      return Step::kAborted;
    }
    if (conflict()) {
      if (!stack_.backtrack(stats)) return Step::kExhausted;
      continue;
    }
    if (satisfied()) return Step::kSolution;
    Objective obj;
    if (!pick_objective(obj)) {
      // All goals defined yet neither satisfied nor conflicting cannot
      // happen; guard anyway.
      if (!stack_.backtrack(stats)) return Step::kExhausted;
      continue;
    }
    const auto assignment = backtrace(model_, obj);
    if (!assignment) {
      if (!stack_.backtrack(stats)) return Step::kExhausted;
      continue;
    }
    ++stats.decisions;
    stack_.push(*assignment);
  }
}

sim::State3 FrameGoalSearch::minimized_state() {
  return model_.minimized_state([&] { return satisfied(); });
}

DeterministicJustifier::DeterministicJustifier(const netlist::Circuit& c,
                                               const SearchLimits& limits,
                                               state::StateStore* store,
                                               FrameModelPool* pool)
    : c_(c),
      limits_(limits),
      store_(store),
      own_pool_(pool ? nullptr : std::make_unique<FrameModelPool>(c)),
      pool_(pool ? pool : own_pool_.get()) {}

DeterministicJustifier::Outcome DeterministicJustifier::justify(
    const State3& target, const util::Deadline& deadline) {
  stats_ = SearchStats{};
  std::vector<const State3*> path;
  const Outcome out =
      justify_rec(target, limits_.max_justify_depth, path, deadline);
  if (store_ && out.status == Status::kUnjustifiable) {
    // Top-level exhaustion without clipping: a global untestability-grade
    // proof, safe to reuse against any later query the cube subsumes.
    store_->record_unjustifiable(target);
  }
  return out;
}

DeterministicJustifier::Outcome DeterministicJustifier::justify_rec(
    const State3& target, unsigned depth, std::vector<const State3*>& path,
    const util::Deadline& deadline) {
  const bool trivial = std::all_of(target.begin(), target.end(),
                                   [](V3 v) { return v == V3::kX; });
  if (trivial) return {Status::kJustified, {}};

  if (std::any_of(path.begin(), path.end(),
                  [&](const State3* p) { return *p == target; })) {
    // Requirement cycle: a minimal justification never repeats a
    // requirement, so this branch is safely abandoned.
    return {Status::kUnjustifiable, {}};
  }
  if (depth == 0) {
    stats_.clipped = true;
    return {Status::kAborted, {}};
  }
  if (store_ && store_->known_unjustifiable(target)) {
    // Stored cubes are globally unreachable, so the rejection is sound at
    // any recursion depth (it only strengthens the path-relative argument).
    return {Status::kUnjustifiable, {}};
  }

  std::vector<Objective> goals;
  const auto ffs = c_.flip_flops();
  for (std::size_t i = 0; i < ffs.size(); ++i) {
    if (target[i] != V3::kX) {
      goals.push_back({0, c_.fanins(ffs[i])[0], target[i]});
    }
  }

  FrameGoalSearch search(c_, std::move(goals), pool_);
  bool any_aborted = false;
  for (;;) {
    const auto step = search.next(deadline, limits_.max_backtracks, stats_);
    if (step == FrameGoalSearch::Step::kAborted) {
      return {Status::kAborted, {}};
    }
    if (step == FrameGoalSearch::Step::kExhausted) {
      return {any_aborted ? Status::kAborted : Status::kUnjustifiable, {}};
    }
    const State3 previous = search.minimized_state();
    path.push_back(&target);
    Outcome sub = justify_rec(previous, depth - 1, path, deadline);
    path.pop_back();
    if (sub.status == Status::kJustified) {
      sub.sequence.push_back(search.model().extract_vectors()[0]);
      return sub;
    }
    if (sub.status == Status::kAborted) any_aborted = true;
  }
}

}  // namespace gatpg::atpg
