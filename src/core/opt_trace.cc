#include "core/opt_trace.h"

#include "util/string_util.h"

namespace subshare {

namespace {

// "{0, 2, 5}" for a candidate-id bitmask.
std::string MaskToString(uint64_t mask) {
  std::string out = "{";
  bool first = true;
  for (int i = 0; i < 64; ++i) {
    if (!(mask >> i & 1)) continue;
    if (!first) out += ", ";
    out += StrFormat("%d", i);
    first = false;
  }
  return out + "}";
}

}  // namespace

std::string OptTrace::ExplainTrace() const {
  std::string out = "=== optimizer trace ===\n";

  out += StrFormat("signature filtering: %d sharable set(s)\n",
                   static_cast<int>(signatures.size()));
  for (const SignatureSet& s : signatures) {
    out += StrFormat("  %s -> %d group(s)%s\n", s.signature.c_str(),
                     s.num_groups,
                     s.pruned_h1 ? "  [pruned: Heuristic 1]" : "");
  }

  if (!merges.empty()) {
    out += StrFormat("algorithm 1: %d merge attempt(s)\n",
                     static_cast<int>(merges.size()));
    for (const Merge& m : merges) {
      out += StrFormat("  %s  +  %s  (delta=%.2f) -> %s\n",
                       m.current.c_str(), m.other.c_str(), m.delta,
                       m.accepted ? "merged" : "rejected");
    }
  }

  if (!prunes.empty()) {
    out += StrFormat("prunes: %d\n", static_cast<int>(prunes.size()));
    for (const Prune& p : prunes) {
      out += "  [" + p.rule + "] " + p.what;
      if (!p.detail.empty()) out += "  (" + p.detail + ")";
      out += "\n";
    }
  }
  if (candidates_dropped > 0) {
    out += StrFormat("candidates dropped beyond Bitset64 capacity: %lld\n",
                     static_cast<long long>(candidates_dropped));
  }

  out += StrFormat("candidates materialized: %d\n",
                   static_cast<int>(candidates.size()));
  for (const Candidate& c : candidates) {
    out += StrFormat("  #%d %s  [%d consumer(s)]\n", c.id,
                     c.description.c_str(), c.num_consumers);
  }

  if (!components.empty()) {
    std::string sizes;
    for (const Component& c : components) {
      sizes += StrFormat("%s%d", sizes.empty() ? "" : ", ",
                         __builtin_popcountll(c.members));
    }
    out += StrFormat("interaction components: %d (sizes %s)\n",
                     static_cast<int>(components.size()), sizes.c_str());
    for (const Component& c : components) {
      out += StrFormat("  %s -> %s, %d set(s) optimized, chose %s\n",
                       MaskToString(c.members).c_str(), c.method.c_str(),
                       c.optimizations, MaskToString(c.chosen).c_str());
    }
  }

  if (!enumeration.empty() || skipped_prop54 + skipped_prop55 +
                                  skipped_prop56 > 0) {
    out += StrFormat("enumeration: %d set(s) optimized%s\n",
                     static_cast<int>(enumeration.size()),
                     enumeration_capped ? "  [capped]" : "");
    for (const EnumStep& e : enumeration) {
      std::string note = e.note.empty() ? "" : "  (" + e.note + ")";
      if (e.cost < 0) {
        out += StrFormat("  %s -> infeasible%s\n",
                         MaskToString(e.subset).c_str(), note.c_str());
        continue;
      }
      out += StrFormat("  %s -> cost %.2f, used %s%s%s\n",
                       MaskToString(e.subset).c_str(), e.cost,
                       MaskToString(e.used).c_str(),
                       e.improved ? "  [new best]" : "", note.c_str());
    }
    if (skipped_prop54 + skipped_prop55 + skipped_prop56 > 0) {
      out += StrFormat(
          "  skipped as redundant: %lld (Prop 5.4), %lld (Prop 5.5), "
          "%lld (Prop 5.6)\n",
          static_cast<long long>(skipped_prop54),
          static_cast<long long>(skipped_prop55),
          static_cast<long long>(skipped_prop56));
    }
  }

  if (!cache_events.empty()) {
    out += StrFormat("cross-batch cache: %d event(s)\n",
                     static_cast<int>(cache_events.size()));
    for (const std::string& e : cache_events) {
      out += "  " + e + "\n";
    }
  }

  out += StrFormat(
      "chosen set: %s  (normal cost %.2f -> final cost %.2f)\n",
      MaskToString(chosen_set).c_str(), normal_cost, final_cost);
  return out;
}

}  // namespace subshare
