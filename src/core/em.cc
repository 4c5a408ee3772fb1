#include "core/em.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <string>

#include "util/saturating.h"

namespace pgm {

namespace {

/// A DFS state: positions reachable after matching some character string,
/// each with the number of offset-sequence prefixes that land on it.
/// Position vectors stay sorted; the window spans at most
/// depth * (M+1) + 1 positions so states stay small.
struct StateEntry {
  std::int64_t pos;
  std::uint64_t count;
};

/// Exact K_r search with branch and bound. `psi[k][p]` is an upper bound on
/// the maximum single-string multiplicity reachable from position p in k
/// further gapped steps:
///
///   psi[0][p] = 1
///   psi[k][p] = max over chars c of sum of psi[k-1][q]
///               for q in [p+N+1, p+M+1] with S[q] = c.
///
/// It over-counts only because it lets every parent pick its best character
/// independently, so sum(count_p * psi[rem][p]) bounds every leaf below a
/// state — tight enough to cut almost everything in low-multiplicity
/// regions.
class KrSearcher {
 public:
  KrSearcher(const Sequence& sequence, const GapRequirement& gap,
             std::int64_t m)
      : sequence_(sequence), gap_(gap), m_(m) {
    const std::size_t L = sequence.size();
    psi_.assign(static_cast<std::size_t>(m) + 1,
                std::vector<std::uint64_t>(L, 0));
    for (std::size_t p = 0; p < L; ++p) psi_[0][p] = 1;
    const std::size_t num_symbols = sequence.alphabet().size();
    std::vector<std::uint64_t> per_char(num_symbols);
    for (std::int64_t k = 1; k <= m; ++k) {
      for (std::int64_t p = 0; p < static_cast<std::int64_t>(L); ++p) {
        std::fill(per_char.begin(), per_char.end(), 0);
        const std::int64_t lo = p + gap.min_gap() + 1;
        const std::int64_t hi =
            std::min<std::int64_t>(static_cast<std::int64_t>(L) - 1,
                                   p + gap.max_gap() + 1);
        std::uint64_t best = 0;
        for (std::int64_t q = lo; q <= hi; ++q) {
          std::uint64_t& slot = per_char[sequence[q]];
          slot = SatAdd(slot, psi_[k - 1][q]);
          best = std::max(best, slot);
        }
        psi_[k][p] = best;
      }
    }
  }

  /// Upper bound on K_r before searching.
  std::uint64_t Bound(std::size_t r) const { return psi_[m_][r]; }

  /// max(incumbent, K_r): branches that cannot beat `incumbent` are pruned,
  /// so incumbent 0 yields the exact K_r.
  std::uint64_t Search(std::size_t r, std::uint64_t incumbent) const {
    std::vector<StateEntry> root{StateEntry{static_cast<std::int64_t>(r), 1}};
    return SearchState(root, m_, incumbent);
  }

 private:
  std::uint64_t StateBound(const std::vector<StateEntry>& state,
                           std::int64_t remaining) const {
    std::uint64_t bound = 0;
    for (const StateEntry& entry : state) {
      bound = SatAdd(bound, SatMul(entry.count, psi_[remaining][entry.pos]));
    }
    return bound;
  }

  std::uint64_t SearchState(const std::vector<StateEntry>& state,
                            std::int64_t remaining,
                            std::uint64_t best_so_far) const {
    if (remaining == 0) {
      std::uint64_t total = 0;
      for (const StateEntry& entry : state) {
        total = SatAdd(total, entry.count);
      }
      return total;
    }
    const std::int64_t L = static_cast<std::int64_t>(sequence_.size());
    const std::size_t num_symbols = sequence_.alphabet().size();

    // Children grouped by next character, kept sorted by position.
    std::vector<std::vector<StateEntry>> children(num_symbols);
    for (const StateEntry& entry : state) {
      const std::int64_t lo = entry.pos + gap_.min_gap() + 1;
      const std::int64_t hi =
          std::min<std::int64_t>(L - 1, entry.pos + gap_.max_gap() + 1);
      for (std::int64_t q = lo; q <= hi; ++q) {
        auto& bucket = children[sequence_[q]];
        if (bucket.empty() || bucket.back().pos < q) {
          bucket.push_back(StateEntry{q, entry.count});
        } else if (bucket.back().pos == q) {
          bucket.back().count = SatAdd(bucket.back().count, entry.count);
        } else {
          auto it = std::lower_bound(
              bucket.begin(), bucket.end(), q,
              [](const StateEntry& e, std::int64_t p) { return e.pos < p; });
          if (it != bucket.end() && it->pos == q) {
            it->count = SatAdd(it->count, entry.count);
          } else {
            bucket.insert(it, StateEntry{q, entry.count});
          }
        }
      }
    }

    // Explore the most promising character first so the bound bites early.
    std::vector<std::pair<std::uint64_t, std::size_t>> order;
    for (std::size_t c = 0; c < num_symbols; ++c) {
      if (children[c].empty()) continue;
      order.emplace_back(StateBound(children[c], remaining - 1), c);
    }
    std::sort(order.begin(), order.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });

    std::uint64_t best = best_so_far;
    for (const auto& [bound, c] : order) {
      if (bound <= best) break;  // order is descending: nothing better left
      best = std::max(best, SearchState(children[c], remaining - 1, best));
    }
    return best;
  }

  const Sequence& sequence_;
  const GapRequirement& gap_;
  std::int64_t m_;
  // psi_[k][p] as documented above.
  std::vector<std::vector<std::uint64_t>> psi_;
};

}  // namespace

StatusOr<EmResult> ComputeEm(const Sequence& sequence,
                             const GapRequirement& gap, std::int64_t m) {
  if (m < 1) {
    return Status::InvalidArgument("e_m order m must be >= 1");
  }
  EmResult result;
  result.m = m;
  result.k_values.resize(sequence.size(), 0);
  if (sequence.empty()) return result;
  KrSearcher searcher(sequence, gap, m);
  for (std::size_t r = 0; r < sequence.size(); ++r) {
    // K_r counts complete length-(m+1) offset sequences only; psi bounds it
    // from above, so a zero bound (window runs off the sequence) is final.
    if (searcher.Bound(r) == 0) {
      result.k_values[r] = 0;
      continue;
    }
    result.k_values[r] = searcher.Search(r, /*incumbent=*/0);
    result.em = std::max(result.em, result.k_values[r]);
  }
  return result;
}

StatusOr<EmValue> ComputeEmValue(const Sequence& sequence,
                                 const GapRequirement& gap, std::int64_t m) {
  if (m < 1) {
    return Status::InvalidArgument("e_m order m must be >= 1");
  }
  EmValue result;
  if (sequence.empty()) return result;
  KrSearcher searcher(sequence, gap, m);
  std::vector<std::size_t> order(sequence.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return searcher.Bound(a) > searcher.Bound(b);
                   });
  // Bound(r) >= K_r, so once the bounds (descending) cannot beat the
  // incumbent no later start can either; a zero bound never runs.
  for (std::size_t r : order) {
    if (searcher.Bound(r) <= result.em) break;
    result.em = searcher.Search(r, result.em);
    ++result.starts_searched;
  }
  return result;
}

std::uint64_t BruteForceKr(const Sequence& sequence, const GapRequirement& gap,
                           std::int64_t m, std::size_t r) {
  const std::int64_t L = static_cast<std::int64_t>(sequence.size());
  std::map<std::string, std::uint64_t> counts;
  std::string current;
  current.push_back(sequence.CharAt(r));
  // Depth-first enumeration of all offset sequences [r, r+g1, ...] with
  // deltas in [N+1, M+1].
  auto dfs = [&](auto&& self, std::int64_t pos, std::int64_t remaining) -> void {
    if (remaining == 0) {
      ++counts[current];
      return;
    }
    for (std::int64_t delta = gap.min_gap() + 1; delta <= gap.max_gap() + 1;
         ++delta) {
      const std::int64_t next = pos + delta;
      if (next >= L) break;
      current.push_back(sequence.CharAt(static_cast<std::size_t>(next)));
      self(self, next, remaining - 1);
      current.pop_back();
    }
  };
  dfs(dfs, static_cast<std::int64_t>(r), m);
  std::uint64_t best = 0;
  for (const auto& [pattern, count] : counts) best = std::max(best, count);
  return best;
}

}  // namespace pgm
