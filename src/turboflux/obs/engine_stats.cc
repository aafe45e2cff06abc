#include "turboflux/obs/engine_stats.h"

namespace turboflux {
namespace obs {

void DcgStats::Reset() {
  transitions.Reset();
  null_to_implicit.Reset();
  implicit_to_explicit.Reset();
  explicit_to_null.Reset();
  explicit_to_implicit.Reset();
  implicit_to_null.Reset();
}

void DcgStats::AppendTo(StatsSnapshot& out, const std::string& prefix) const {
  out.AddCounter(prefix + "transitions", transitions.value());
  out.AddCounter(prefix + "null_to_implicit", null_to_implicit.value());
  out.AddCounter(prefix + "implicit_to_explicit",
                 implicit_to_explicit.value());
  out.AddCounter(prefix + "explicit_to_null", explicit_to_null.value());
  out.AddCounter(prefix + "explicit_to_implicit",
                 explicit_to_implicit.value());
  out.AddCounter(prefix + "implicit_to_null", implicit_to_null.value());
}

void DcsStats::Reset() {
  transitions.Reset();
  d1_set.Reset();
  d1_cleared.Reset();
  d2_set.Reset();
  d2_cleared.Reset();
  isolated_groups.Reset();
}

void DcsStats::AppendTo(StatsSnapshot& out, const std::string& prefix) const {
  out.AddCounter(prefix + "transitions", transitions.value());
  out.AddCounter(prefix + "d1_set", d1_set.value());
  out.AddCounter(prefix + "d1_cleared", d1_cleared.value());
  out.AddCounter(prefix + "d2_set", d2_set.value());
  out.AddCounter(prefix + "d2_cleared", d2_cleared.value());
  out.AddCounter(prefix + "isolated_groups", isolated_groups.value());
}

void GraphLayoutStats::Reset() {
  adj_bytes.Reset();
  adj_dead_slots.Reset();
  pair_table_bytes.Reset();
  compactions.Reset();
  rehashes.Reset();
}

void GraphLayoutStats::AppendTo(StatsSnapshot& out,
                                const std::string& prefix) const {
  out.AddCounter(prefix + "adj_bytes", adj_bytes.value());
  out.AddCounter(prefix + "adj_dead_slots", adj_dead_slots.value());
  out.AddCounter(prefix + "pair_table_bytes", pair_table_bytes.value());
  out.AddCounter(prefix + "compactions", compactions.value());
  out.AddCounter(prefix + "rehashes", rehashes.value());
}

void EngineStats::Reset() {
  ops_insert.Reset();
  ops_delete.Reset();
  insert_evals.Reset();
  delete_evals.Reset();
  search_seeds.Reset();
  search_states.Reset();
  matches_positive.Reset();
  matches_negative.Reset();
  order_recomputes.Reset();
  intermediate_size.Reset();
  peak_intermediate.Reset();
  checkpoints.Reset();
  restores.Reset();
  checkpoint_bytes.Reset();
  restore_bytes.Reset();
  checkpoint_seconds.Reset();
  restore_seconds.Reset();
  dcg.Reset();
  dcs.Reset();
  graph.Reset();
}

void EngineStats::AppendTo(StatsSnapshot& out, const std::string& prefix,
                           bool include_graph) const {
  out.AddCounter(prefix + "ops_insert", ops_insert.value());
  out.AddCounter(prefix + "ops_delete", ops_delete.value());
  out.AddCounter(prefix + "insert_evals", insert_evals.value());
  out.AddCounter(prefix + "delete_evals", delete_evals.value());
  out.AddCounter(prefix + "search_seeds", search_seeds.value());
  out.AddCounter(prefix + "search_states", search_states.value());
  out.AddCounter(prefix + "matches_positive", matches_positive.value());
  out.AddCounter(prefix + "matches_negative", matches_negative.value());
  out.AddCounter(prefix + "order_recomputes", order_recomputes.value());
  out.AddCounter(prefix + "intermediate_size", intermediate_size.value());
  out.AddCounter(prefix + "peak_intermediate", peak_intermediate.value());
  out.AddCounter(prefix + "checkpoints", checkpoints.value());
  out.AddCounter(prefix + "restores", restores.value());
  out.AddCounter(prefix + "checkpoint_bytes", checkpoint_bytes.value());
  out.AddCounter(prefix + "restore_bytes", restore_bytes.value());
  if (checkpoint_seconds.data().count > 0) {
    out.AddHistogram(prefix + "checkpoint_ns", checkpoint_seconds.data());
  }
  if (restore_seconds.data().count > 0) {
    out.AddHistogram(prefix + "restore_ns", restore_seconds.data());
  }
  dcg.AppendTo(out, prefix + "dcg.");
  dcs.AppendTo(out, prefix + "dcs.");
  if (include_graph) graph.AppendTo(out, prefix + "graph.");
}

}  // namespace obs
}  // namespace turboflux
