#include "core/annealing.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "core/frontier.h"
#include "model/sharded_pool.h"
#include "model/worker_pool_view.h"
#include "util/scheduler.h"

namespace jury {
namespace {

/// Score-comparison band shared with the other solvers; see
/// `kScoreEquivalenceTol` in objective.h for why every score-sensitive
/// decision is banded.
constexpr double kScoreTol = kScoreEquivalenceTol;

/// Mutable SA state: the objective's evaluation session (which holds the
/// jury as view indices plus its delta-update state), a selection bitmap,
/// and the jury's cached cost. Every candidate move is *staged* on the
/// session (`Score*`), then either committed (move accepted) or rolled
/// back (rejected).
class SearchState {
 public:
  SearchState(const JspInstance& instance, const WorkerPoolView& view,
              const JqObjective& objective, bool use_incremental,
              AnnealingStats* stats)
      : cost_col_(view.cost()),
        stats_(stats),
        session_(objective.StartSession(view, instance.alpha,
                                        use_incremental)) {
    selected_.assign(instance.num_candidates(), false);
    best_jq_ = session_->current_jq();
  }

  const std::vector<std::size_t>& members() const {
    return session_->members();
  }
  double cost() const { return cost_; }
  double current_jq() const { return session_->current_jq(); }
  bool is_selected(std::size_t i) const { return selected_[i]; }
  std::size_t size() const { return session_->size(); }

  const std::vector<std::size_t>& best_members() const {
    return best_members_;
  }
  double best_jq() const { return best_jq_; }

  /// Stages "add candidate `in`" and returns the resulting JQ.
  double ScoreAdd(std::size_t in) {
    CountEvaluation();
    return session_->ScoreAdd(in);
  }
  /// Stages "remove candidate `out`" and returns the resulting JQ.
  double ScoreRemove(std::size_t out) {
    CountEvaluation();
    return session_->ScoreRemove(session_->PositionOf(out));
  }
  /// Stages "swap candidate `out` for `in`" and returns the resulting JQ.
  double ScoreSwap(std::size_t out, std::size_t in) {
    CountEvaluation();
    return session_->ScoreSwap(session_->PositionOf(out), in);
  }
  void Reject() { session_->Rollback(); }

  void AcceptAdd(std::size_t in) {
    session_->Commit();
    selected_[in] = true;
    cost_ += cost_col_[in];
    TrackBest();
  }

  void AcceptSwap(std::size_t out, std::size_t in) {
    session_->Commit();
    selected_[out] = false;
    selected_[in] = true;
    cost_ += cost_col_[in] - cost_col_[out];
    TrackBest();
  }

  void AcceptRemove(std::size_t out) {
    session_->Commit();
    selected_[out] = false;
    cost_ -= cost_col_[out];
    TrackBest();
  }

  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

 private:
  void CountEvaluation() {
    if (stats_ != nullptr) ++stats_->objective_evaluations;
  }

  void TrackBest() {
    const double jq = session_->current_jq();
    if (jq > best_jq_ + kScoreTol) {
      best_jq_ = jq;
      best_members_ = members();
    }
  }

  std::span<const double> cost_col_;
  AnnealingStats* stats_;
  std::unique_ptr<IncrementalJqEvaluator> session_;
  std::vector<bool> selected_;
  double cost_ = 0.0;
  std::vector<std::size_t> best_members_;
  double best_jq_ = 0.0;
};

/// Boltzmann acceptance (§5.1): uphill always, downhill with exp(delta/T).
/// The uniform draw happens unconditionally so that the rng stream advances
/// identically however a numerically-tied delta lands.
bool Accept(double delta, double temperature, Rng* rng) {
  const double u = rng->Uniform();
  if (delta >= -kScoreTol) return true;
  return u <= std::exp(delta / temperature);
}

/// Uniform pick among unselected candidate indices; kNone when all selected.
std::size_t PickUnselected(const SearchState& state, std::size_t n,
                           Rng* rng) {
  const std::size_t complement = n - state.size();
  if (complement == 0) return SearchState::kNone;
  std::size_t target = static_cast<std::size_t>(rng->UniformInt(complement));
  for (std::size_t i = 0; i < n; ++i) {
    if (!state.is_selected(i)) {
      if (target == 0) return i;
      --target;
    }
  }
  return SearchState::kNone;
}

/// \brief Batched best-improvement polish of one jury over its full
/// add/remove/swap neighbourhood — the unified-move-scan retrofit of the
/// annealing neighbourhood (see `AnnealingOptions::max_polish_moves`).
///
/// Each scan is three contiguous batched passes: every affordable add
/// through `ScoreAddBatch`, every removal through `ScoreRemoveBatch`
/// (skipped for monotone objectives, where Lemma 1 rules removals out),
/// and every member's affordable swap partners through `ScoreSwapBatch` —
/// all on view indices, all fused-kernel scans, where the SA schedule
/// probes one random move at a time. The best strictly-improving move
/// (banded first-wins, scan order: adds by index, removals by position,
/// swaps by (position, index)) is applied and the scan repeats until no
/// move clears the band or the move cap is hit. Deterministic and
/// rng-free, hence bit-stable across thread counts and SIMD levels.
JspSolution PolishNeighbourhood(const JspInstance& instance,
                                const WorkerPoolView& view,
                                const JqObjective& objective,
                                const AnnealingOptions& options,
                                const std::vector<std::size_t>& start,
                                AnnealingStats* stats,
                                WorkGovernor* governor) {
  const std::size_t n = instance.num_candidates();
  const std::span<const double> cost_col = view.cost();
  auto session =
      objective.StartSession(view, instance.alpha, options.use_incremental);
  std::vector<char> selected(n, 0);
  double cost = 0.0;
  for (std::size_t idx : start) {
    session->ScoreAdd(idx);
    session->Commit();
    selected[idx] = 1;
    cost += cost_col[idx];
  }
  const std::size_t move_cap =
      options.max_polish_moves == AnnealingOptions::kAutoPolishMoves
          ? 2 * n + 8
          : options.max_polish_moves;
  const bool monotone = objective.monotone_in_size();

  // Frontier pre-selection applies to the adds pass (the only pass whose
  // candidates are "add this worker", which is what the monotone key
  // bounds). The adds run first in each scan, so the banded incumbent
  // starts from -inf exactly as in the full pass and the frontier pick
  // reproduces the incumbent the full adds loop would leave behind,
  // bit for bit; removals and swaps then proceed unchanged. Polish runs
  // per chain, possibly concurrently, so the stats stay chain-local and
  // are flushed to the (atomic) registry counters at the end.
  ShardedWorkerPool::KeyColumn frontier_key{};
  const bool use_frontier =
      FrontierUsable(options.sharded_pool, &view, objective,
                     options.frontier_k, &frontier_key);
  FrontierOptions frontier_options;
  frontier_options.k = options.frontier_k;
  FrontierScanStats frontier_stats;

  enum class Kind { kNone, kAdd, kRemove, kSwap };
  std::vector<std::size_t> batch_ids;
  std::vector<std::size_t> positions;
  std::vector<double> scores;
  for (std::size_t applied = 0; applied < move_cap; ++applied) {
    // One polish scan is one work unit: scans dominate the polish cost
    // and their count is a pure function of the jury, so the stop point
    // stays deterministic under `max_work_units`.
    if (governor->Tick() != StopReason::kNone) break;
    if (stats != nullptr) ++stats->polish_scans;
    const double current = session->current_jq();
    double best_score = -std::numeric_limits<double>::infinity();
    Kind best_kind = Kind::kNone;
    std::size_t best_in = 0;
    std::size_t best_pos = 0;
    const auto consider = [&](double score, Kind kind, std::size_t in,
                              std::size_t pos) {
      if (score > best_score + kScoreTol) {
        best_score = score;
        best_kind = kind;
        best_in = in;
        best_pos = pos;
      }
    };

    // Adds: one batched pass over every affordable unselected candidate —
    // or, with a sharded pool wired, the frontier's slate-plus-guard
    // subset, whose banded argmax equals the full pass's.
    if (use_frontier) {
      const FrontierPick pick = FrontierSelectAdd(
          *session, *options.sharded_pool, frontier_key, selected, cost,
          instance.budget, frontier_options, &frontier_stats);
      if (pick.found) consider(pick.best_score, Kind::kAdd, pick.best_index, 0);
    } else {
      batch_ids.clear();
      for (std::size_t i = 0; i < n; ++i) {
        if (!selected[i] && cost + cost_col[i] <= instance.budget) {
          batch_ids.push_back(i);
        }
      }
      if (!batch_ids.empty()) {
        scores.resize(batch_ids.size());
        session->ScoreAddBatch(batch_ids.data(), batch_ids.size(),
                               scores.data());
        for (std::size_t j = 0; j < batch_ids.size(); ++j) {
          consider(scores[j], Kind::kAdd, batch_ids[j], 0);
        }
      }
    }

    // Removals: one batched pass over every member position. A monotone
    // objective (Lemma 1) cannot improve by shrinking, so the scan is
    // skipped there — the decision depends only on the objective, never
    // on scores, so the incremental/full paths stay aligned.
    const std::vector<std::size_t>& members = session->members();
    const std::size_t size = members.size();
    if (!monotone && size > 0) {
      positions.resize(size);
      for (std::size_t pos = 0; pos < size; ++pos) positions[pos] = pos;
      scores.resize(size);
      session->ScoreRemoveBatch(positions.data(), size, scores.data());
      for (std::size_t pos = 0; pos < size; ++pos) {
        consider(scores[pos], Kind::kRemove, 0, pos);
      }
    }

    // Swaps: per member position, one batched pass over its affordable
    // partners (the out member's remove fold is amortized inside
    // `ScoreSwapBatch`).
    for (std::size_t pos = 0; pos < size; ++pos) {
      const double c_out = cost_col[members[pos]];
      batch_ids.clear();
      for (std::size_t i = 0; i < n; ++i) {
        if (!selected[i] && cost - c_out + cost_col[i] <= instance.budget) {
          batch_ids.push_back(i);
        }
      }
      if (batch_ids.empty()) continue;
      scores.resize(batch_ids.size());
      session->ScoreSwapBatch(pos, batch_ids.data(), batch_ids.size(),
                              scores.data());
      for (std::size_t j = 0; j < batch_ids.size(); ++j) {
        consider(scores[j], Kind::kSwap, batch_ids[j], pos);
      }
    }

    if (best_kind == Kind::kNone || best_score <= current + kScoreTol) {
      break;  // local optimum under the band
    }
    // Apply the winner by re-staging it (one scalar delta) and committing.
    // A remove or swap reads its leaving member before the commit.
    const std::size_t out = best_kind == Kind::kAdd ? 0 : members[best_pos];
    switch (best_kind) {
      case Kind::kAdd:
        session->ScoreAdd(best_in);
        session->Commit();
        selected[best_in] = true;
        cost += cost_col[best_in];
        break;
      case Kind::kRemove:
        session->ScoreRemove(best_pos);
        session->Commit();
        selected[out] = false;
        cost -= cost_col[out];
        break;
      case Kind::kSwap:
        session->ScoreSwap(best_pos, best_in);
        session->Commit();
        selected[out] = false;
        selected[best_in] = true;
        cost += cost_col[best_in] - cost_col[out];
        break;
      case Kind::kNone:
        break;
    }
    if (stats != nullptr) ++stats->polish_moves;
  }
  if (use_frontier) FlushFrontierStats(frontier_stats);
  return MakeSolution(instance, session->members(), session->current_jq());
}

/// One annealing chain (the whole of Algorithm 3): the body of the
/// historical single-run solver, unchanged, so `num_restarts = 1` with the
/// caller's rng reproduces the old trajectories seed-for-seed (the
/// rng-free polish below only post-processes the chain's result).
JspSolution RunChain(const JspInstance& instance, const WorkerPoolView& view,
                     const JqObjective& objective, Rng* rng,
                     const AnnealingOptions& options, AnnealingStats* stats,
                     WorkGovernor* governor) {
  const std::size_t n = instance.num_candidates();
  const std::span<const double> cost_col = view.cost();
  SearchState state(instance, view, objective, options.use_incremental,
                    stats);
  // Algorithm 3 accepts "add a worker if it fits" unconditionally, which
  // Lemma 1 justifies for monotone objectives (BV); MV's additions go
  // through the Boltzmann acceptance test like any other move.
  const bool blind_adds = objective.monotone_in_size();

  bool stop = false;
  for (double temperature = options.initial_temperature;
       temperature >= options.epsilon && !stop;
       temperature *= options.cooling_factor) {
    if (stats != nullptr) ++stats->temperature_levels;
    for (std::size_t step = 0; step < n; ++step) {
      // The check site of Algorithm 3: one attempted move is one work
      // unit, ticked before the move so a stopped chain never starts
      // another scoring. The committed jury (and the best-seen
      // incumbent) is always valid here, which is what makes the
      // truncated chain an anytime result.
      if (governor->Tick() != StopReason::kNone) {
        stop = true;
        break;
      }
      const std::size_t r = static_cast<std::size_t>(rng->UniformInt(n));
      if (stats != nullptr) ++stats->moves_attempted;

      // Steps 9-11 of Algorithm 3: adopt an affordable unselected worker.
      if (!state.is_selected(r) &&
          state.cost() + cost_col[r] <= instance.budget) {
        const double new_jq = state.ScoreAdd(r);
        const double delta = new_jq - state.current_jq();
        if (blind_adds || Accept(delta, temperature, rng)) {
          state.AcceptAdd(r);
          if (stats != nullptr) {
            ++stats->moves_accepted;
            if (delta >= -kScoreTol) ++stats->uphill_accepts;
            else ++stats->downhill_accepts;
          }
        } else {
          state.Reject();
        }
        continue;
      }

      // Extension (removal_probability > 0): occasionally propose dropping
      // a selected worker outright, Boltzmann-gated like any other move.
      if (state.is_selected(r) && options.removal_probability > 0.0 &&
          rng->Bernoulli(options.removal_probability)) {
        const double new_jq = state.ScoreRemove(r);
        const double delta = new_jq - state.current_jq();
        if (Accept(delta, temperature, rng)) {
          state.AcceptRemove(r);
          if (stats != nullptr) {
            ++stats->moves_accepted;
            if (delta >= -kScoreTol) ++stats->uphill_accepts;
            else ++stats->downhill_accepts;
          }
        } else {
          state.Reject();
        }
        continue;
      }

      // Algorithm 4 (Swap): pair `r` with a partner on the other side.
      std::size_t out = SearchState::kNone;
      std::size_t in = SearchState::kNone;
      if (!state.is_selected(r)) {
        if (state.size() == 0) continue;
        const std::size_t pos =
            static_cast<std::size_t>(rng->UniformInt(state.size()));
        out = state.members()[pos];
        in = r;
      } else {
        in = PickUnselected(state, n, rng);
        if (in == SearchState::kNone) continue;
        out = r;
      }
      const double new_cost = state.cost() - cost_col[out] + cost_col[in];
      if (new_cost > instance.budget) continue;

      const double new_jq = state.ScoreSwap(out, in);
      const double delta = new_jq - state.current_jq();
      if (Accept(delta, temperature, rng)) {
        state.AcceptSwap(out, in);
        if (stats != nullptr) {
          ++stats->moves_accepted;
          if (delta >= -kScoreTol) ++stats->uphill_accepts;
          else ++stats->downhill_accepts;
        }
      } else {
        state.Reject();
      }
    }
  }

  JspSolution result =
      options.return_best_seen
          ? MakeSolution(instance, state.best_members(), state.best_jq())
          : MakeSolution(instance, state.members(), state.current_jq());
  // A chain stopped by its governor skips the polish: the stop already
  // consumed the strand's budget (or the clock), and whether the skip
  // happens is itself deterministic under `max_work_units`.
  if (options.max_polish_moves > 0 && !governor->stopped()) {
    result = PolishNeighbourhood(instance, view, objective, options,
                                 result.selected, stats, governor);
  }
  return result;
}

}  // namespace

Status AnnealingOptions::Validate() const {
  // Checks run in field-declaration order and each failure names its own
  // field: callers (and the fuzzers) rely on the lowest-index-field error
  // contract. Every comparison is written NaN-safe (`!(x > 0)` is true
  // for NaN), and the schedule bounds must be *finite* — an infinite
  // initial temperature never cools below epsilon (inf * c == inf), so
  // it would validate a non-terminating loop.
  if (!(initial_temperature > 0.0) ||
      !(initial_temperature <= std::numeric_limits<double>::max())) {
    return Status::InvalidArgument(
        "initial_temperature must be finite and > 0");
  }
  if (!(epsilon > 0.0) || !(epsilon <= std::numeric_limits<double>::max())) {
    return Status::InvalidArgument("epsilon must be finite and > 0");
  }
  if (!(cooling_factor > 0.0) || !(cooling_factor < 1.0)) {
    return Status::InvalidArgument("cooling_factor must be in (0, 1)");
  }
  if (!(removal_probability >= 0.0) || !(removal_probability <= 1.0)) {
    return Status::InvalidArgument(
        "removal_probability must be a probability");
  }
  if (num_restarts == 0) {
    return Status::InvalidArgument("num_restarts must be >= 1");
  }
  if (num_restarts > kMaxRestarts) {
    // The restart fan-out allocates a chain state per restart; an
    // attacker-controlled request must not turn that into an OOM.
    return Status::InvalidArgument("num_restarts must be <= 1000000");
  }
  return Status::OK();
}

Result<JspSolution> SolveAnnealing(const JspInstance& instance,
                                   const WorkerPoolView& view,
                                   const JqObjective& objective, Rng* rng,
                                   const AnnealingOptions& options,
                                   AnnealingStats* stats) {
  JURY_RETURN_NOT_OK(ValidateSolveEntry(instance, view));
  if (rng == nullptr) {
    return Status::InvalidArgument("SolveAnnealing requires an Rng");
  }
  JURY_RETURN_NOT_OK(options.Validate());
  if (stats != nullptr) *stats = AnnealingStats{};
  if (options.termination != nullptr) *options.termination = TerminationInfo{};

  if (instance.num_candidates() == 0) {
    return MakeSolution(instance, {}, objective.EmptyJq(instance.alpha));
  }

  if (options.num_restarts == 1) {
    WorkGovernor governor(options.cancel_token, options.max_work_units);
    JspSolution solution =
        RunChain(instance, view, objective, rng, options, stats, &governor);
    if (options.termination != nullptr) {
      options.termination->MergeStrand(governor.reason(),
                                       governor.work_done());
    }
    return solution;
  }

  // Multi-restart: split per-chain rng streams from the caller's rng
  // *serially*, then run the chains as one region on the process-wide
  // scheduler. Each chain owns its state, session, rng, and stats; the
  // shared objective only accumulates its (atomic) evaluation counters.
  // Chain k's trajectory depends only on seeds[k], so the result set —
  // and the ordered best-of reduction below — is bit-identical for every
  // thread count. When this solve itself runs inside a task (a
  // budget-table row), the region nests and idle workers steal chains.
  const std::size_t chains = options.num_restarts;
  std::vector<std::uint64_t> seeds(chains);
  for (std::uint64_t& seed : seeds) seed = rng->Next();

  std::vector<JspSolution> solutions(chains);
  std::vector<AnnealingStats> chain_stats(chains);
  // Per-chain governors: each strand gets the full `max_work_units`
  // budget, so its stop point depends only on its own seed — never on
  // how chains were scheduled — and the outcomes merge serially below.
  std::vector<WorkGovernor> governors(chains);
  for (WorkGovernor& governor : governors) {
    governor = WorkGovernor(options.cancel_token, options.max_work_units);
  }
  const auto run_chains = [&](std::size_t begin, std::size_t end) {
    for (std::size_t k = begin; k < end; ++k) {
      Rng chain_rng(seeds[k]);
      solutions[k] =
          RunChain(instance, view, objective, &chain_rng, options,
                   stats != nullptr ? &chain_stats[k] : nullptr,
                   &governors[k]);
    }
  };
  Scheduler::GlobalParallelFor(
      0, chains, 1, run_chains,
      std::min(ResolveThreadCount(options.num_threads), chains));

  std::size_t best = 0;
  for (std::size_t k = 1; k < chains; ++k) {
    const bool better =
        solutions[k].jq > solutions[best].jq + kScoreTol ||
        (solutions[k].jq > solutions[best].jq - kScoreTol &&
         solutions[k].cost < solutions[best].cost);
    if (better) best = k;
  }
  if (stats != nullptr) {
    for (const AnnealingStats& s : chain_stats) {
      stats->temperature_levels += s.temperature_levels;
      stats->moves_attempted += s.moves_attempted;
      stats->moves_accepted += s.moves_accepted;
      stats->uphill_accepts += s.uphill_accepts;
      stats->downhill_accepts += s.downhill_accepts;
      stats->objective_evaluations += s.objective_evaluations;
      stats->polish_scans += s.polish_scans;
      stats->polish_moves += s.polish_moves;
    }
  }
  if (options.termination != nullptr) {
    for (const WorkGovernor& governor : governors) {
      options.termination->MergeStrand(governor.reason(),
                                       governor.work_done());
    }
  }
  return solutions[best];
}

}  // namespace jury
