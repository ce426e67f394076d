#include "hilbert/hilbert_partitioner.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>
#include <vector>

#include "anonymity/eligibility.h"
#include "common/check.h"
#include "common/external_sort.h"
#include "common/memory_budget.h"
#include "common/parallel.h"
#include "common/workspace.h"
#include "hilbert/hilbert_curve.h"

namespace ldv {

namespace {

// Incremental l-eligibility tracker for a growing multiset of SA values,
// backed by a caller-supplied dense counter so repeated splits reuse one
// buffer.
class GrowingEligibility {
 public:
  GrowingEligibility(std::vector<std::uint32_t>* counts, std::vector<SaValue>* touched,
                     std::size_t m)
      : counts_(*counts), touched_(*touched) {
    counts_.assign(m, 0);
    touched_.clear();
  }

  void Add(SaValue v) {
    ++counts_[v];
    touched_.push_back(v);
    max_ = std::max(max_, counts_[v]);
    ++total_;
  }

  bool Eligible(std::uint32_t l) const {
    return total_ >= static_cast<std::uint64_t>(l) * max_;
  }

  std::uint64_t total() const { return total_; }

  void Reset() {
    for (SaValue v : touched_) counts_[v] = 0;
    touched_.clear();
    max_ = 0;
    total_ = 0;
  }

 private:
  std::vector<std::uint32_t>& counts_;
  std::vector<SaValue>& touched_;
  std::uint32_t max_ = 0;
  std::uint64_t total_ = 0;
};

// Sorted Hilbert order of the table's rows. Rows are Hilbert-encoded in
// fixed chunks and fed into an ExternalSorter of (code, row) records, whose
// (key, payload) order is `codes[a] < codes[b], ties by a < b`. Unbudgeted,
// or when the budget can hold a 16-byte record per row, the run buffer
// holds every row: the sort runs in RAM as one run and never opens a spill
// file. Otherwise the buffer takes a quarter of the remaining budget, full
// buffers spill as sorted runs, and the k-way merge streams them back --
// the full code array (8 bytes/row) is never resident. Domains larger than
// the representable grid are right-shifted (graceful coarsening); the
// paper's workloads (d <= 7, domains <= 79) always fit exactly.
void ComputeOrder(const Table& table, Workspace& ws, std::vector<RowId>* order) {
  constexpr std::size_t kEncodeChunk = 65536;
  const std::size_t n = table.size();
  std::uint32_t d = static_cast<std::uint32_t>(table.qi_count());
  std::uint32_t bits_needed = 1;
  for (AttrId a = 0; a < d; ++a) {
    bits_needed = std::max(bits_needed,
                           HilbertCurve::BitsForDomain(table.schema().qi(a).domain_size));
  }
  std::uint32_t bits = std::min(bits_needed, std::max(1u, 64u / d));
  std::uint32_t shift = bits_needed - bits;
  HilbertCurve curve(d, bits);

  std::shared_ptr<MemoryBudget> budget =
      MemoryBudgetBytes() != 0 ? GlobalMemoryBudgetShared() : nullptr;
  std::size_t buffer_records = std::max<std::size_t>(n, 1);
  if (budget != nullptr && !budget->WouldFit(sizeof(SortRecord) * n)) {
    buffer_records = static_cast<std::size_t>(std::clamp<std::uint64_t>(
        budget->remaining() / 4 / sizeof(SortRecord), 1u << 16, 4u << 20));
  }
  ExternalSorter sorter({.buffer_records = buffer_records, .budget = budget});

  std::vector<const Value*> cols(d);
  for (AttrId a = 0; a < d; ++a) cols[a] = table.column(a).data();
  auto chunk_s = ws.U64();
  std::vector<std::uint64_t>& chunk = *chunk_s;
  chunk.resize(std::min(n, kEncodeChunk));
  for (std::size_t begin = 0; begin < n; begin += kEncodeChunk) {
    const std::size_t count = std::min(kEncodeChunk, n - begin);
    curve.EncodeBlock(cols.data(), shift, begin, count, chunk.data());
    for (std::size_t i = 0; i < count; ++i) sorter.Add(chunk[i], begin + i);
  }
  sorter.Finish();
  order->resize(n);
  SortRecord record;
  for (std::size_t i = 0; i < n; ++i) {
    LDIV_CHECK(sorter.Next(&record)) << "external sort lost records";
    (*order)[i] = static_cast<RowId>(record.payload);
  }
}

// Greedy splitter: close each group as soon as `satisfied(acc)` holds and
// `reset` empties `acc`; merge an unsatisfied tail backwards. Sound for any
// predicate that is monotone under union and holds for the whole table --
// l-eligibility (Lemma 1) and the diversity variants of [31] -- so the
// merge terminates (at worst the tail becomes the whole table). Group
// start offsets are appended to `starts`.
template <typename Accumulator, typename Satisfied, typename Reset>
void GreedySplit(const Table& table, const std::vector<RowId>& order, Accumulator& acc,
                 Satisfied satisfied, Reset reset, std::vector<std::uint32_t>* starts) {
  std::size_t group_start = 0;
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (acc.total() == 0) group_start = i;
    acc.Add(table.sa(order[i]));
    if (satisfied(acc)) {
      starts->push_back(static_cast<std::uint32_t>(group_start));
      reset();
    }
  }
  if (acc.total() > 0) {
    std::size_t tail_start = group_start;
    while (!satisfied(acc)) {
      LDIV_CHECK(!starts->empty());
      std::size_t prev = starts->back();
      starts->pop_back();
      for (std::size_t i = prev; i < tail_start; ++i) acc.Add(table.sa(order[i]));
      tail_start = prev;
    }
    starts->push_back(static_cast<std::uint32_t>(tail_start));
  }
}

// Sliding-window DP splitter: dp[i] = fewest stars for the first i rows in
// Hilbert order, transitioning over the last group (j, i]. Groups larger
// than the window are considered only when no in-window transition is
// eligible, which keeps the DP feasible on adversarial SA runs.
//
// The dominant cost -- scanning every position's candidate window for
// group eligibility and star counts -- depends only on the data, never on
// dp, so it is computed block-parallel: fixed chunks of positions fill a
// candidate-cost table (stars of (j, i], or a sentinel when ineligible),
// then a sequential combine walks the positions in order and resolves the
// dp recurrence over the precomputed costs. Positions whose window holds
// no eligible reachable transition replay the original unbounded backward
// scan (the adversarial-run escape hatch, which does consult dp); the
// replay is verbatim the sequential loop, so the split is byte-identical
// to the single-threaded path at any thread count.
void WindowDpSplit(const Table& table, const std::vector<RowId>& order, std::uint32_t l,
                   std::uint32_t window, Workspace& ws, std::vector<std::uint32_t>* starts) {
  const std::size_t n = order.size();
  const std::size_t d = table.qi_count();
  const std::size_t m = table.schema().sa_domain_size();
  const std::uint64_t kInf = std::numeric_limits<std::uint64_t>::max();
  constexpr std::uint32_t kIneligible = std::numeric_limits<std::uint32_t>::max();
  const std::size_t w = std::min<std::size_t>(std::max(1u, window), n);
  // In-window star counts are at most d * w; they must stay clear of the
  // sentinel for the u32 candidate table to be lossless.
  LDIV_CHECK_LT(static_cast<std::uint64_t>(d) * w, kIneligible);

  auto dp_s = ws.U64();
  std::vector<std::uint64_t>& dp = *dp_s;
  dp.assign(n + 1, kInf);
  auto parent_s = ws.U32();
  std::vector<std::uint32_t>& parent = *parent_s;
  parent.assign(n + 1, 0);
  dp[0] = 0;

  std::vector<const Value*> cols(d);
  for (AttrId a = 0; a < d; ++a) cols[a] = table.column(a).data();

  // Candidate-cost table for one block of positions: entry k * w + off is
  // the cost of ending a group at position i = block_begin + k with the
  // transition j = i - 1 - off. Blocked so the table stays a few MB even
  // for wide windows; the block size is a function of (n, w) only.
  const std::size_t kMaxEntries = std::size_t{1} << 22;
  const std::size_t block = std::max<std::size_t>(1, kMaxEntries / w);
  auto cand_s = ws.U32();
  std::vector<std::uint32_t>& cand = *cand_s;
  cand.resize(std::min(n, block) * w);

  // Scratch for the sequential escape-hatch replay.
  auto fb_counts_s = ws.U32();
  auto fb_touched_s = ws.U32();
  GrowingEligibility fb_acc(&*fb_counts_s, &*fb_touched_s, m);
  std::vector<Value> fb_first(d);
  std::vector<char> fb_uniform(d);

  for (std::size_t block_begin = 1; block_begin <= n; block_begin += block) {
    const std::size_t count = std::min(block, n + 1 - block_begin);
    // Parallel fill: each chunk of positions keeps one eligibility
    // accumulator and scans its windows backward, exactly like the
    // sequential inner loop (minus the dp-dependent parts).
    ParallelFor(count, 128, ws, [&](std::size_t cb, std::size_t ce, Workspace& cws) {
      auto counts_s = cws.U32();
      auto touched_s = cws.U32();
      GrowingEligibility acc(&*counts_s, &*touched_s, m);
      std::vector<Value> first_value(d);
      std::vector<char> uniform(d);
      for (std::size_t k = cb; k < ce; ++k) {
        const std::size_t i = block_begin + k;
        std::uint32_t* out = cand.data() + k * w;
        acc.Reset();
        std::fill(uniform.begin(), uniform.end(), 1);
        for (std::size_t a = 0; a < d; ++a) first_value[a] = cols[a][order[i - 1]];
        std::size_t nonuniform = 0;
        const std::size_t lo = i > w ? i - w : 0;
        for (std::size_t j = i; j-- > lo;) {
          acc.Add(table.sa(order[j]));
          const RowId row = order[j];
          for (std::size_t a = 0; a < d; ++a) {
            if (uniform[a] && cols[a][row] != first_value[a]) {
              uniform[a] = 0;
              ++nonuniform;
            }
          }
          out[i - 1 - j] = acc.Eligible(l)
                               ? static_cast<std::uint32_t>(nonuniform * (i - j))
                               : kIneligible;
        }
      }
    });

    // Sequential combine, positions in ascending order: the recurrence
    // itself, over the precomputed candidate costs. Descending-j candidate
    // order and the strict improvement test reproduce the sequential
    // tie-breaking (ties keep the larger j).
    for (std::size_t k = 0; k < count; ++k) {
      const std::size_t i = block_begin + k;
      const std::uint32_t* row_cand = cand.data() + k * w;
      const std::size_t limit = std::min(i, w);
      bool found = false;
      for (std::size_t off = 0; off < limit; ++off) {
        const std::uint32_t cost = row_cand[off];
        if (cost == kIneligible) continue;
        const std::size_t j = i - 1 - off;
        if (dp[j] == kInf) continue;
        found = true;
        if (dp[j] + cost < dp[i]) {
          dp[i] = dp[j] + cost;
          parent[i] = static_cast<std::uint32_t>(j);
        }
      }
      if (found || i <= w) continue;
      // No eligible reachable transition inside the window: replay the
      // original unbounded backward scan for this position (verbatim the
      // pre-parallel loop, including its beyond-window stopping rule).
      fb_acc.Reset();
      std::fill(fb_uniform.begin(), fb_uniform.end(), 1);
      for (std::size_t a = 0; a < d; ++a) fb_first[a] = cols[a][order[i - 1]];
      std::size_t nonuniform = 0;
      bool found_eligible = false;
      for (std::size_t j = i; j-- > 0;) {
        fb_acc.Add(table.sa(order[j]));
        const RowId row = order[j];
        for (std::size_t a = 0; a < d; ++a) {
          if (fb_uniform[a] && cols[a][row] != fb_first[a]) {
            fb_uniform[a] = 0;
            ++nonuniform;
          }
        }
        if (i - j > window && found_eligible) break;
        if (!fb_acc.Eligible(l) || dp[j] == kInf) continue;
        found_eligible = true;
        std::uint64_t stars = static_cast<std::uint64_t>(nonuniform) * (i - j);
        if (dp[j] + stars < dp[i]) {
          dp[i] = dp[j] + stars;
          parent[i] = static_cast<std::uint32_t>(j);
        }
      }
    }
  }
  LDIV_CHECK_NE(dp[n], kInf);

  for (std::size_t i = n; i > 0; i = parent[i]) starts->push_back(parent[i]);
  std::reverse(starts->begin(), starts->end());
}

// Emits order[starts[i], starts[i+1]) as the partition's groups.
void EmitGroups(const std::vector<RowId>& order, const std::vector<std::uint32_t>& starts,
                Partition* partition) {
  partition->Reserve(starts.size());
  for (std::size_t gi = 0; gi < starts.size(); ++gi) {
    std::size_t end = (gi + 1 < starts.size()) ? starts[gi + 1] : order.size();
    partition->AddGroup(std::vector<RowId>(order.begin() + starts[gi], order.begin() + end));
  }
}

}  // namespace

HilbertResult HilbertAnonymizeWithSpec(const Table& table, const DiversitySpec& spec) {
  HilbertResult result;
  if (table.empty()) {
    result.feasible = true;
    return result;
  }
  const std::size_t m = table.schema().sa_domain_size();
  {
    SaHistogram whole(std::vector<std::uint32_t>(table.SaHistogramCounts()));
    if (!SatisfiesDiversity(whole, spec)) return result;
  }
  auto start_time = std::chrono::steady_clock::now();

  Workspace ws;
  auto order_s = ws.U32();
  std::vector<RowId>& order = *order_s;
  ComputeOrder(table, ws, &order);

  // Greedy close + backward merge, with the generic (monotone) predicate.
  std::vector<std::uint32_t> starts;
  SaHistogram acc(m);
  GreedySplit(
      table, order, acc, [&spec](const SaHistogram& h) { return SatisfiesDiversity(h, spec); },
      [&acc, m] { acc = SaHistogram(m); }, &starts);

  EmitGroups(order, starts, &result.partition);
  result.feasible = true;
  result.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_time).count();
  return result;
}

void HilbertComputeOrder(const Table& table, Workspace* workspace, std::vector<RowId>* order) {
  Workspace local;
  Workspace& ws = workspace != nullptr ? *workspace : local;
  ComputeOrder(table, ws, order);
}

HilbertResult HilbertAnonymize(const Table& table, std::uint32_t l,
                               const HilbertOptions& options, Workspace* workspace,
                               const std::vector<RowId>* precomputed_order) {
  HilbertResult result;
  if (table.empty() || !IsTableEligible(table, l)) {
    result.feasible = table.empty();
    return result;
  }
  auto start_time = std::chrono::steady_clock::now();

  Workspace local;
  Workspace& ws = workspace != nullptr ? *workspace : local;
  auto order_s = ws.U32();
  const std::vector<RowId>* order_ptr;
  if (precomputed_order != nullptr) {
    order_ptr = precomputed_order;
  } else {
    ComputeOrder(table, ws, &*order_s);
    order_ptr = &*order_s;
  }
  const std::vector<RowId>& order = *order_ptr;

  auto starts_s = ws.U32();
  std::vector<std::uint32_t>& starts = *starts_s;
  if (options.splitter == HilbertOptions::Splitter::kGreedy) {
    auto counts_s = ws.U32();
    auto touched_s = ws.U32();
    GrowingEligibility acc(&*counts_s, &*touched_s, table.schema().sa_domain_size());
    GreedySplit(
        table, order, acc, [l](const GrowingEligibility& e) { return e.Eligible(l); },
        [&acc] { acc.Reset(); }, &starts);
  } else {
    WindowDpSplit(table, order, l, options.dp_window_factor * l, ws, &starts);
  }

  EmitGroups(order, starts, &result.partition);
  result.feasible = true;
  result.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_time).count();
  return result;
}

}  // namespace ldv
