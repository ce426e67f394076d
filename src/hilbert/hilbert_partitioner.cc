#include "hilbert/hilbert_partitioner.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <vector>

#include "anonymity/eligibility.h"
#include "common/check.h"
#include "common/external_sort.h"
#include "common/memory_budget.h"
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
                               const HilbertOptions&, Workspace* workspace,
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
  auto counts_s = ws.U32();
  auto touched_s = ws.U32();
  GrowingEligibility acc(&*counts_s, &*touched_s, table.schema().sa_domain_size());
  GreedySplit(
      table, order, acc, [l](const GrowingEligibility& e) { return e.Eligible(l); },
      [&acc] { acc.Reset(); }, &starts);

  EmitGroups(order, starts, &result.partition);
  result.feasible = true;
  result.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_time).count();
  return result;
}

}  // namespace ldv
