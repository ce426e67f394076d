// ldiv_benchtool: the in-process half of the end-to-end benchmark. The
// driver (perfbench/run.py) measures the real `ldiv` binary; this tool
// links libldv to check what that binary published and to replay its jobs
// layer by layer with a span around every public entry point.
//
//   ldiv_benchtool info
//       One JSON line: SIMD tier, resolved thread budget, hardware threads.
//   ldiv_benchtool verify MANIFEST
//       Re-reads each published release, checks it against its input and
//       report, and prints one JSON line per entry.
//   ldiv_benchtool trace oneshot|daemon MANIFEST WORKDIR TRACE_JSON [SOCKET]
//       Replays each job (one-shot: against a fresh Engine; daemon: through
//       the running `ldiv serve` on SOCKET and a long-lived in-process
//       Engine) and prints one JSON line per job plus a final line of cache
//       counters. The spans go to TRACE_JSON as Chrome trace-event JSON.
//
// Manifest lines are tab-separated; the trailing fields are the job's
// `ldiv` flags, parsed by the CLI's own ParseCliOptions.
//   verify: ID  L  STARS  SUPPRESSED  KIND  STEM  FLAGS...
//           KIND is suppression | bucketization | none (report-only job).
//   trace:  KIND  REF_STEM  FLAGS...
//           KIND is job | warm (replayed only to reproduce cache state).

#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "anonymity/anatomy.h"
#include "anonymity/eligibility.h"
#include "anonymity/release.h"
#include "cli/cli_options.h"
#include "common/failpoint.h"
#include "common/grouped_table.h"
#include "common/histogram.h"
#include "common/memory_budget.h"
#include "common/page_cache.h"
#include "common/parallel.h"
#include "common/simd.h"
#include "common/workspace.h"
#include "core/algorithm.h"
#include "core/batch.h"
#include "core/run_spec.h"
#include "core/tp.h"
#include "core/tp_plus.h"
#include "daemon/client.h"
#include "daemon/protocol.h"
#include "data/dataset.h"
#include "engine/engine.h"
#include "engine/report.h"
#include "hilbert/hilbert_partitioner.h"
#include "metrics/kl_divergence.h"
#include "mondrian/mondrian.h"
#include "tds/tds.h"

namespace {

using namespace ldv;

using Clock = std::chrono::steady_clock;

std::vector<std::string> SplitTabs(const std::string& line) {
  std::vector<std::string> fields;
  std::size_t start = 0;
  while (true) {
    const std::size_t tab = line.find('\t', start);
    const std::size_t length = tab == std::string::npos ? std::string::npos : tab - start;
    fields.push_back(line.substr(start, length));
    if (tab == std::string::npos) break;
    start = tab + 1;
  }
  return fields;
}

std::string JsonEscape(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string Num(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", value);
  return buf;
}

std::uint64_t FileBytes(const std::string& path) {
  struct ::stat st{};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<std::uint64_t>(st.st_size) : 0;
}

bool FileExists(const std::string& path) {
  struct ::stat st{};
  return ::stat(path.c_str(), &st) == 0;
}

std::optional<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Parses a job's `ldiv` flags exactly as the CLI does and resolves them.
std::optional<ResolvedJobSpec> ParseJobFlags(const std::vector<std::string>& flags,
                                             std::string* error) {
  std::vector<const char*> argv = {"ldiv"};
  for (const std::string& flag : flags) argv.push_back(flag.c_str());
  CliOptions options;
  if (!ParseCliOptions(static_cast<int>(argv.size()), argv.data(), &options, error)) {
    return std::nullopt;
  }
  Expected<ResolvedJobSpec, PipelineError> resolved = ResolveJobSpec(ToJobSpec(options));
  if (!resolved.ok()) {
    *error = resolved.error().message;
    return std::nullopt;
  }
  return *resolved;
}

DatasetSpec FirstCell(const JobSpec& spec) {
  DatasetSpec cell = spec.dataset;
  cell.n = static_cast<std::size_t>(spec.ns.front());
  cell.d = static_cast<std::size_t>(spec.ds.front());
  return cell;
}

// ---- verify ---------------------------------------------------------------

/// Mixed-radix packing of (QI values, SA) into one 64-bit key. Each QI
/// digit has one extra symbol for '*', so a release row and an input row
/// projected onto the release row's visible attributes pack identically.
class RowKeyPacker {
 public:
  explicit RowKeyPacker(const Schema& schema) {
    unsigned __int128 span = 1;
    for (std::size_t a = 0; a < schema.qi_count(); ++a) {
      multiplier_.push_back(static_cast<std::uint64_t>(span));
      star_.push_back(schema.qi(static_cast<AttrId>(a)).domain_size);
      span *= schema.qi(static_cast<AttrId>(a)).domain_size + 1;
    }
    sa_multiplier_ = static_cast<std::uint64_t>(span);
    span *= schema.sa_domain_size();
    fits_ = span <= (static_cast<unsigned __int128>(1) << 64);
  }

  bool fits() const { return fits_; }

  /// Key of `qi` (kStar marks a suppressed cell) and `sa`.
  std::uint64_t Pack(const Value* qi, SaValue sa) const {
    std::uint64_t key = sa * sa_multiplier_;
    for (std::size_t a = 0; a < multiplier_.size(); ++a) {
      key += (qi[a] == kStar ? star_[a] : qi[a]) * multiplier_[a];
    }
    return key;
  }

  /// Key of input row `row` with the attributes in `mask` suppressed.
  std::uint64_t PackMasked(const Table& table, RowId row, std::uint32_t mask) const {
    std::uint64_t key = table.sa(row) * sa_multiplier_;
    for (std::size_t a = 0; a < multiplier_.size(); ++a) {
      const Value v = (mask >> a) & 1u ? star_[a] : table.qi(row, static_cast<AttrId>(a));
      key += v * multiplier_[a];
    }
    return key;
  }

 private:
  std::vector<std::uint64_t> multiplier_;
  std::vector<std::uint64_t> star_;
  std::uint64_t sa_multiplier_ = 0;
  bool fits_ = false;
};

/// Checks a suppression release (WriteReleaseCsv format): every published
/// QI class is l-eligible, the release covers each input row once, and
/// the star / suppressed-tuple counts equal the report's.
bool VerifySuppression(const Table& table, const std::string& path, std::uint32_t l,
                       std::uint64_t report_stars, std::uint64_t report_suppressed,
                       std::string* error) {
  std::optional<std::vector<ReleaseRow>> rows = ReadReleaseCsv(table.schema(), path);
  if (!rows) {
    *error = "release '" + path + "' does not parse";
    return false;
  }
  if (rows->size() != table.size()) {
    *error = "release has " + std::to_string(rows->size()) + " rows, input has " +
             std::to_string(table.size());
    return false;
  }
  RowKeyPacker packer(table.schema());
  if (!packer.fits()) {
    *error = "schema too wide for the 64-bit row key";
    return false;
  }
  const std::size_t d = table.qi_count();
  const std::size_t m = table.schema().sa_domain_size();

  std::uint64_t stars = 0;
  std::uint64_t suppressed = 0;
  std::unordered_map<std::uint64_t, std::uint32_t> class_of;  // QI key (SA = 0) -> class
  std::vector<std::uint32_t> class_counts;                    // class * m + sa
  std::map<std::uint32_t, std::unordered_map<std::uint64_t, std::int64_t>> by_mask;
  for (const ReleaseRow& row : *rows) {
    if (row.qi.size() != d || row.sa >= m) {
      *error = "release row has the wrong shape";
      return false;
    }
    std::uint32_t mask = 0;
    for (std::size_t a = 0; a < d; ++a) {
      if (row.qi[a] == kStar) mask |= 1u << a;
    }
    const int row_stars = __builtin_popcount(mask);
    stars += static_cast<std::uint64_t>(row_stars);
    if (row_stars != 0) ++suppressed;

    const std::uint64_t class_key = packer.Pack(row.qi.data(), 0);
    auto [it, inserted] =
        class_of.emplace(class_key, static_cast<std::uint32_t>(class_of.size()));
    if (inserted) class_counts.resize(class_counts.size() + m, 0);
    ++class_counts[static_cast<std::size_t>(it->second) * m + row.sa];
    ++by_mask[mask][packer.Pack(row.qi.data(), row.sa)];
  }
  if (stars != report_stars || suppressed != report_suppressed) {
    *error = "release has " + std::to_string(stars) + " stars / " + std::to_string(suppressed) +
             " suppressed tuples, report says " + std::to_string(report_stars) + " / " +
             std::to_string(report_suppressed);
    return false;
  }
  for (std::size_t c = 0; c < class_of.size(); ++c) {
    SaHistogram histogram(std::vector<std::uint32_t>(class_counts.begin() + c * m,
                                                     class_counts.begin() + (c + 1) * m));
    if (!IsEligible(histogram, l)) {
      *error = "a published QI class of " + std::to_string(histogram.total()) +
               " rows is not " + std::to_string(l) + "-eligible";
      return false;
    }
  }
  // Coverage: for every star pattern, the (visible QI, SA) multiset the
  // release publishes must be contained in the input's multiset projected
  // onto the same attributes; with equal row counts, a row that was
  // altered, duplicated or dropped leaves some release key unmatched.
  for (auto& [mask, wanted] : by_mask) {
    for (RowId row = 0; row < table.size(); ++row) {
      auto it = wanted.find(packer.PackMasked(table, row, mask));
      if (it != wanted.end() && it->second > 0) --it->second;
    }
    for (const auto& [key, left] : wanted) {
      if (left > 0) {
        *error = "release rows match no input row (star pattern " + std::to_string(mask) + ")";
        return false;
      }
    }
  }
  return true;
}

bool ParseCodedLine(const std::string& line, std::vector<std::uint64_t>* cells) {
  cells->clear();
  const char* p = line.data();
  const char* end = p + line.size();
  while (p <= end) {
    std::uint64_t value = 0;
    auto [next, ec] = std::from_chars(p, end, value);
    if (ec != std::errc{}) return false;
    cells->push_back(value);
    if (next == end) return true;
    if (*next != ',') return false;
    p = next + 1;
  }
  return false;
}

/// Checks an Anatomy pair: the QI table publishes exactly the input's QI
/// rows, each bucket's SA counts are l-eligible and sum to the bucket's
/// size, and the SA counts over all buckets equal the input's.
bool VerifyBucketization(const Table& table, const std::string& stem, std::uint32_t l,
                         std::uint64_t report_stars, std::uint64_t report_suppressed,
                         std::string* error) {
  if (report_stars != 0 || report_suppressed != 0) {
    *error = "a bucketization report must carry 0 stars";
    return false;
  }
  const std::size_t d = table.qi_count();
  const std::size_t m = table.schema().sa_domain_size();
  RowKeyPacker packer(table.schema());
  if (!packer.fits()) {
    *error = "schema too wide for the 64-bit row key";
    return false;
  }
  std::ifstream qit(stem + ".csv");
  std::ifstream st(stem + "_sa.csv");
  std::string line;
  if (!qit || !st || !std::getline(qit, line) || !std::getline(st, line)) {
    *error = "anatomy pair '" + stem + "' is unreadable";
    return false;
  }
  std::vector<std::uint64_t> cells;
  std::vector<std::uint64_t> published;
  std::vector<std::uint64_t> bucket_size;
  std::vector<Value> qi(d);
  while (std::getline(qit, line)) {
    if (!ParseCodedLine(line, &cells) || cells.size() != d + 1) {
      *error = "anatomy QI row does not parse: '" + line + "'";
      return false;
    }
    for (std::size_t a = 0; a < d; ++a) {
      if (cells[a] >= table.schema().qi(static_cast<AttrId>(a)).domain_size) {
        *error = "anatomy QI value outside its domain";
        return false;
      }
      qi[a] = static_cast<Value>(cells[a]);
    }
    published.push_back(packer.Pack(qi.data(), 0));
    const std::uint64_t bucket = cells[d];
    if (bucket > table.size()) {
      *error = "anatomy bucket id out of range";
      return false;
    }
    if (bucket >= bucket_size.size()) bucket_size.resize(bucket + 1, 0);
    ++bucket_size[bucket];
  }
  std::vector<std::uint64_t> input;
  input.reserve(table.size());
  for (RowId row = 0; row < table.size(); ++row) {
    for (std::size_t a = 0; a < d; ++a) qi[a] = table.qi(row, static_cast<AttrId>(a));
    input.push_back(packer.Pack(qi.data(), 0));
  }
  std::sort(published.begin(), published.end());
  std::sort(input.begin(), input.end());
  if (published != input) {
    *error = "anatomy QI table does not publish exactly the input's QI rows";
    return false;
  }

  std::vector<SaHistogram> buckets(bucket_size.size(), SaHistogram(m));
  std::vector<std::uint64_t> sa_total(m, 0);
  while (std::getline(st, line)) {
    if (!ParseCodedLine(line, &cells) || cells.size() != 3 || cells[0] >= buckets.size() ||
        cells[1] >= m || cells[2] == 0 || cells[2] > table.size()) {
      *error = "anatomy SA row does not parse: '" + line + "'";
      return false;
    }
    buckets[cells[0]].Add(static_cast<SaValue>(cells[1]), static_cast<std::uint32_t>(cells[2]));
    sa_total[cells[1]] += cells[2];
  }
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    if (buckets[b].total() != bucket_size[b]) {
      *error = "anatomy bucket " + std::to_string(b) + " SA counts disagree with its size";
      return false;
    }
    if (bucket_size[b] != 0 && !IsEligible(buckets[b], l)) {
      *error = "anatomy bucket " + std::to_string(b) + " is not " + std::to_string(l) +
               "-eligible";
      return false;
    }
  }
  const std::vector<std::uint32_t> input_sa = table.SaHistogramCounts();
  for (std::size_t v = 0; v < m; ++v) {
    if (sa_total[v] != input_sa[v]) {
      *error = "anatomy SA counts differ from the input's";
      return false;
    }
  }
  return true;
}

int VerifyMain(const std::string& manifest_path) {
  std::ifstream manifest(manifest_path);
  if (!manifest) {
    std::fprintf(stderr, "ldiv_benchtool: cannot read %s\n", manifest_path.c_str());
    return 1;
  }
  // Inputs repeat across entries (one CSV, or a small dataset pool), so
  // each distinct flag set loads once.
  std::map<std::string, std::shared_ptr<Table>> tables;
  std::string line;
  while (std::getline(manifest, line)) {
    if (line.empty()) continue;
    std::vector<std::string> fields = SplitTabs(line);
    std::string error;
    bool ok = fields.size() > 6;
    if (!ok) error = "malformed manifest line";
    std::uint32_t l = 0;
    std::uint64_t stars = 0;
    std::uint64_t suppressed = 0;
    if (ok) {
      l = static_cast<std::uint32_t>(std::stoul(fields[1]));
      stars = std::stoull(fields[2]);
      suppressed = std::stoull(fields[3]);
    }
    const std::string kind = ok ? fields[4] : "";
    const std::string stem = ok ? fields[5] : "";
    std::shared_ptr<Table> table;
    if (ok && kind != "none") {
      std::vector<std::string> flags(fields.begin() + 6, fields.end());
      std::string key;
      for (const std::string& flag : flags) {
        if (flag.rfind("--input=", 0) == 0 || flag.rfind("--schema=", 0) == 0 ||
            flag.rfind("--dataset=", 0) == 0 || flag.rfind("--n=", 0) == 0 ||
            flag.rfind("--d=", 0) == 0 || flag.rfind("--seed=", 0) == 0) {
          key += flag + "\t";
        }
      }
      auto cached = tables.find(key);
      if (cached != tables.end()) {
        table = cached->second;
      } else if (std::optional<ResolvedJobSpec> resolved = ParseJobFlags(flags, &error)) {
        const JobSpec& spec = resolved->spec;
        std::optional<Table> loaded =
            spec.input.empty()
                ? GenerateDataset(FirstCell(spec), &error)
                : LoadTableCsv(spec.input, resolved->format,
                               resolved->schema ? &*resolved->schema : nullptr, &error);
        if (loaded) {
          table = std::make_shared<Table>(std::move(*loaded));
          tables.clear();  // keep at most one large input resident
          tables[key] = table;
        }
      }
      ok = table != nullptr;
    }
    if (ok && kind == "suppression") {
      ok = VerifySuppression(*table, stem + ".csv", l, stars, suppressed, &error);
    } else if (ok && kind == "bucketization") {
      ok = VerifyBucketization(*table, stem, l, stars, suppressed, &error);
    } else if (ok && kind != "none") {
      ok = false;
      error = "unknown release kind '" + kind + "'";
    }
    std::printf("{\"id\": \"%s\", \"ok\": %s, \"error\": \"%s\"}\n",
                JsonEscape(fields[0]).c_str(), ok ? "true" : "false",
                JsonEscape(error).c_str());
    std::fflush(stdout);
  }
  return 0;
}

// ---- trace ----------------------------------------------------------------

double CpuSeconds() {
  struct rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) * 1e-6;
}

/// In-memory span recorder. Spans nest by call order (the replay is
/// single-threaded at this level; kernels parallelize inside a span).
class Tracer {
 public:
  struct Span {
    std::string name;
    int job = 0;
    int parent = -1;
    double start = 0;
    double end = 0;
    double cpu = 0;
    std::uint64_t bytes = 0;
  };

  int Begin(std::string name) {
    Span span;
    span.name = std::move(name);
    span.job = job_;
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.cpu = CpuSeconds();
    span.start = Now();
    spans_.push_back(std::move(span));
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  void End(int index) {
    Span& span = spans_[static_cast<std::size_t>(index)];
    span.end = Now();
    span.cpu = CpuSeconds() - span.cpu;
    stack_.pop_back();
  }

  void SetBytes(int index, std::uint64_t bytes) {
    spans_[static_cast<std::size_t>(index)].bytes = bytes;
  }
  void SetJob(int job) { job_ = job; }
  const Span& span(int index) const { return spans_[static_cast<std::size_t>(index)]; }

  /// Per-name totals of `job`'s spans: calls, wall, self, cpu, bytes. Self
  /// time is a span's wall minus the wall of its direct children.
  std::string JobSummaryJson(int job) const {
    struct Total {
      std::uint64_t calls = 0;
      double wall = 0, self = 0, cpu = 0;
      std::uint64_t bytes = 0;
    };
    std::map<std::string, Total> totals;
    std::map<int, double> child_wall;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (s.job == job && s.parent >= 0) child_wall[s.parent] += s.end - s.start;
    }
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (s.job != job) continue;
      Total& t = totals[s.name];
      ++t.calls;
      t.wall += s.end - s.start;
      t.self += s.end - s.start - child_wall[static_cast<int>(i)];
      t.cpu += s.cpu;
      t.bytes += s.bytes;
    }
    std::string json = "{";
    for (const auto& [name, t] : totals) {
      if (json.size() > 1) json += ", ";
      json += "\"" + name + "\": {\"calls\": " + std::to_string(t.calls) +
              ", \"wall\": " + Num(t.wall) + ", \"self\": " + Num(t.self) +
              ", \"cpu\": " + Num(t.cpu) + ", \"bytes\": " + std::to_string(t.bytes) + "}";
    }
    return json + "}";
  }

  /// Wall of direct children of span `index`.
  double ChildWall(int index) const {
    double wall = 0;
    for (const Span& s : spans_) {
      if (s.parent == index) wall += s.end - s.start;
    }
    return wall;
  }

  bool WriteChromeTrace(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "  {\"name\": \"" << s.name << "\", \"cat\": \"ldiv\", \"ph\": \"X\", \"pid\": 1"
          << ", \"tid\": " << s.job << ", \"ts\": " << Num(s.start * 1e6)
          << ", \"dur\": " << Num((s.end - s.start) * 1e6) << ", \"args\": {\"id\": " << i
          << ", \"parent\": " << s.parent << ", \"job\": " << s.job
          << ", \"cpu_ms\": " << Num(s.cpu * 1e3) << ", \"bytes\": " << s.bytes << "}}"
          << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]}\n";
    out.close();
    return !out.fail();
  }

 private:
  double Now() const { return std::chrono::duration<double>(Clock::now() - origin_).count(); }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
  int job_ = 0;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name)
      : tracer_(tracer), index_(tracer->Begin(std::move(name))) {}
  ~ScopedSpan() { tracer_->End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int index() const { return index_; }

 private:
  Tracer* tracer_;
  int index_;
};

std::string AlgoSpanName(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kTp:
      return "tp";
    case Algorithm::kTpPlus:
      return "tp_plus";
    case Algorithm::kHilbert:
      return "hilbert";
    case Algorithm::kMondrian:
      return "mondrian";
    case Algorithm::kAnatomy:
      return "anatomy";
    case Algorithm::kTds:
      return "tds";
  }
  return "unknown";
}

std::string MethodologySpanName(Methodology methodology) {
  std::string name = MethodologyName(methodology);
  std::replace(name.begin(), name.end(), '-', '_');
  return name;
}

/// The algorithm's own entry point, as the registry's RunRaw calls it.
void SolveOnly(Algorithm algorithm, const Table& table, std::uint32_t l,
               const TableArtifacts& artifacts, Workspace* workspace) {
  switch (algorithm) {
    case Algorithm::kTp:
      if (artifacts.grouped != nullptr) {
        RunTp(*artifacts.grouped, l);
      } else {
        RunTp(table, l, workspace);
      }
      return;
    case Algorithm::kTpPlus:
      RunTpPlus(table, l, HilbertOptions{}, workspace, artifacts.grouped.get());
      return;
    case Algorithm::kHilbert:
      HilbertAnonymize(table, l, HilbertOptions{}, workspace, artifacts.hilbert_order.get());
      return;
    case Algorithm::kMondrian:
      MondrianAnonymize(table, l, workspace);
      return;
    case Algorithm::kAnatomy:
      AnatomyAnonymize(table, l);
      return;
    case Algorithm::kTds:
      RunTds(table, l);
      return;
  }
}

double KlFor(const Table& table, const AnonymizationOutcome& outcome) {
  switch (outcome.methodology) {
    case Methodology::kSuppression:
      return KlDivergenceSuppression(table, *outcome.generalized);
    case Methodology::kMultiDimensional:
      return KlDivergenceMultiDim(table, *outcome.boxes);
    case Methodology::kSingleDimensional:
      return KlDivergenceSingleDim(table, *outcome.single_dim);
    case Methodology::kBucketization:
      return KlDivergenceAnatomy(table, outcome.partition);
  }
  return 0;
}

/// Per-job layer counters read at the replay's boundaries.
struct JobCounters {
  PageCache::Stats pages;
  std::uint64_t budget_peak = 0;
  std::uint64_t spill_live_after = 0;
  std::uint64_t dataset_misses = 0;
  std::uint64_t artifact_misses = 0;
  std::uint64_t cells = 0;
  double serial_run_s = 0;  ///< Σ single-job Run + KL wall of a sweep's cells
  bool kl_agrees = true;    ///< serial KL == batch KL on every sweep cell
};

/// The replay's own caches, mirroring the engine's (same capacities).
struct ReplayCaches {
  DatasetCache datasets{EngineOptions{}.cache_bytes};
  ArtifactCache artifacts{EngineOptions{}.artifact_cache_bytes};
};

/// Replays one JobSpec through the layers' public entry points in the
/// engine's order (Engine::RunLocked + WriteJobOutputs), with a span
/// around each call. Outputs land at spec.out like the engine's.
bool ReplayJob(const ResolvedJobSpec& resolved, ReplayCaches* caches, Tracer* tracer,
               JobCounters* counters, std::string* error) {
  const JobSpec& spec = resolved.spec;
  if (!spec.emit_input.empty() || (!spec.input.empty() && resolved.format == CsvFormat::kRaw)) {
    *error = "the replay covers coded and synthetic inputs without --emit-input";
    return false;
  }
  SetThreadBudget(spec.threads);
  SetMemoryBudget(spec.memory_budget);
  const std::uint64_t budget = MemoryBudgetBytes();
  auto should_page = [budget](std::uint64_t estimate) {
    return budget != 0 && estimate > budget / 4;
  };
  PagedTableBuilder::Options paged_options;
  paged_options.budget = GlobalMemoryBudgetShared();
  if (budget != 0) {
    paged_options.cache_frames = static_cast<std::size_t>(
        std::clamp<std::uint64_t>(budget / 4 / paged_options.page_bytes, 8, 256));
  }

  JobResult result;
  result.threads = ThreadBudget();
  auto insert_table = [&](std::optional<Table> table, std::string source, std::string key) {
    auto entry = std::make_shared<EngineTable>(std::move(*table));
    entry->source = std::move(source);
    entry->cache_key = key;
    if (!key.empty()) {
      caches->datasets.Insert(key, entry,
                              static_cast<std::uint64_t>(entry->table.size()) *
                                      (entry->table.qi_count() + 1) * sizeof(std::uint32_t) +
                                  4096);
    }
    result.tables.push_back(std::move(entry));
  };

  // 1. Inputs: LoadTableCsv / LoadTableCsvPaged / GenerateDataset.
  if (!spec.input.empty()) {
    const Schema* schema = resolved.schema ? &*resolved.schema : nullptr;
    const std::string source = "csv:" + spec.input;
    const std::uint64_t file_bytes = FileBytes(spec.input);
    if (should_page(2 * file_bytes + 4096)) {
      caches->datasets.RecordPagedBypass();
      std::unique_ptr<PagedTable> paged;
      {
        ScopedSpan span(tracer, "data.load");
        tracer->SetBytes(span.index(), file_bytes);
        paged = LoadTableCsvPaged(spec.input, resolved.format, schema, paged_options, error);
      }
      if (paged == nullptr) return false;
      auto entry = std::make_shared<EngineTable>(std::move(paged));
      entry->source = source;
      result.tables.push_back(std::move(entry));
    } else {
      const std::string key = DatasetCache::CsvKey(spec.input, resolved.format, spec.schema_spec);
      std::shared_ptr<const EngineTable> hit;
      if (!key.empty()) hit = caches->datasets.Lookup(key);
      if (hit != nullptr) {
        result.tables.push_back(std::move(hit));
      } else {
        ++counters->dataset_misses;
        std::optional<Table> table;
        {
          ScopedSpan span(tracer, "data.load");
          tracer->SetBytes(span.index(), file_bytes);
          table = LoadTableCsv(spec.input, resolved.format, schema, error);
        }
        if (!table) return false;
        insert_table(std::move(table), source, key);
      }
    }
  } else {
    for (std::uint64_t n : spec.ns) {
      for (std::uint64_t d : spec.ds) {
        DatasetSpec cell = spec.dataset;
        cell.n = static_cast<std::size_t>(n);
        cell.d = static_cast<std::size_t>(d);
        const std::uint64_t bytes = n * (d + 1) * sizeof(std::uint32_t) + 4096;
        if (should_page(bytes)) {
          caches->datasets.RecordPagedBypass();
          std::unique_ptr<PagedTable> paged;
          {
            ScopedSpan span(tracer, "data.load");
            tracer->SetBytes(span.index(), bytes);
            paged = GenerateDatasetPaged(cell, paged_options, error);
          }
          if (paged == nullptr) return false;
          auto entry = std::make_shared<EngineTable>(std::move(paged));
          entry->source = DatasetLabel(cell);
          result.tables.push_back(std::move(entry));
          continue;
        }
        const std::string key = DatasetCache::SyntheticKey(cell);
        if (std::shared_ptr<const EngineTable> hit = caches->datasets.Lookup(key)) {
          result.tables.push_back(std::move(hit));
          continue;
        }
        ++counters->dataset_misses;
        std::optional<Table> table;
        {
          ScopedSpan span(tracer, "data.load");
          tracer->SetBytes(span.index(), bytes);
          table = GenerateDataset(cell, error);
        }
        if (!table) return false;
        insert_table(std::move(table), DatasetLabel(cell), key);
      }
    }
  }

  // 2-3. Artifacts: GroupedTable and HilbertComputeOrder, through the
  // artifact cache when the table is cache-eligible.
  AnonymizerOptions algo_options;
  algo_options.compute_kl = spec.compute_kl;
  std::vector<RunSpec> specs =
      ExpandRunGrid(spec.algorithms, spec.ls, result.tables.size(), algo_options);
  counters->cells += specs.size();
  std::uint64_t artifact_capacity = EngineOptions{}.artifact_cache_bytes;
  if (spec.artifact_cache != kArtifactCacheAuto) {
    artifact_capacity = spec.artifact_cache;
  } else if (spec.memory_budget != 0) {
    artifact_capacity = std::min(artifact_capacity, spec.memory_budget / 4);
  }
  caches->artifacts.SetCapacity(artifact_capacity);
  result.artifacts.assign(result.tables.size(), TableArtifacts{});
  std::uint64_t artifact_bytes = 0;
  Workspace artifact_workspace;
  for (std::size_t i = 0; i < result.tables.size(); ++i) {
    bool need_grouped = false;
    bool need_order = false;
    for (const RunSpec& run : specs) {
      if (run.table_index != i) continue;
      need_grouped = need_grouped || AlgorithmUsesGroupedArtifact(run.algorithm);
      need_order = need_order || AlgorithmUsesHilbertOrderArtifact(run.algorithm);
    }
    const EngineTable& input = *result.tables[i];
    const bool eligible = !input.cache_key.empty() && input.paged == nullptr;
    TableArtifacts& artifacts = result.artifacts[i];
    if (need_grouped) {
      const std::string key =
          eligible ? ArtifactCache::GroupedKey(input.cache_key, input.table) : std::string();
      if (eligible) artifacts.grouped = caches->artifacts.LookupGrouped(key);
      if (artifacts.grouped == nullptr) {
        ++counters->artifact_misses;
        std::shared_ptr<GroupedTable> grouped;
        {
          ScopedSpan span(tracer, "grouping.build");
          grouped = std::make_shared<GroupedTable>(input.table, &artifact_workspace);
          grouped->ReleaseBudgetCharge();
        }
        if (eligible) caches->artifacts.InsertGrouped(key, grouped, grouped->ApproxBytes());
        artifacts.grouped = std::move(grouped);
      }
      artifact_bytes += artifacts.grouped->ApproxBytes();
    }
    if (need_order) {
      const std::string key =
          eligible ? ArtifactCache::OrderKey(input.cache_key, input.table) : std::string();
      if (eligible) artifacts.hilbert_order = caches->artifacts.LookupOrder(key);
      if (artifacts.hilbert_order == nullptr) {
        ++counters->artifact_misses;
        auto order = std::make_shared<std::vector<RowId>>();
        {
          ScopedSpan span(tracer, "hilbert.order");
          HilbertComputeOrder(input.table, &artifact_workspace, order.get());
        }
        if (eligible) caches->artifacts.InsertOrder(key, order, order->size() * sizeof(RowId));
        artifacts.hilbert_order = std::move(order);
      }
      artifact_bytes += artifacts.hilbert_order->size() * sizeof(RowId);
    }
  }
  MemoryReservation artifacts_reservation;
  if (budget != 0 && artifact_bytes != 0) {
    artifacts_reservation = MemoryReservation(GlobalMemoryBudgetShared(), artifact_bytes);
  }

  // 4-6. Solve (the algorithm's entry point), Anonymizer::Run with KL off
  // (solve + materialization), then the methodology's KL estimator.
  auto run_cell = [&](const RunSpec& run) {
    const Table& table = result.tables[run.table_index]->table;
    const TableArtifacts& artifacts = result.artifacts[run.table_index];
    const std::string algo = AlgoSpanName(run.algorithm);
    {
      Workspace workspace;
      ScopedSpan span(tracer, "core.solve." + algo);
      SolveOnly(run.algorithm, table, run.l, artifacts, &workspace);
    }
    AnonymizerOptions kl_off = run.options;
    kl_off.compute_kl = false;
    AnonymizationOutcome outcome;
    const Clock::time_point start = Clock::now();
    {
      Workspace workspace;
      ScopedSpan span(tracer, "core.run." + algo);
      outcome = AlgorithmRegistry::Global()
                    .Create(run.algorithm, kl_off)
                    ->Run(table, run.l, &workspace, artifacts.empty() ? nullptr : &artifacts);
    }
    if (run.options.compute_kl && outcome.feasible) {
      ScopedSpan span(tracer, "metrics.kl." + MethodologySpanName(outcome.methodology));
      outcome.kl_divergence = KlFor(table, outcome);
    }
    counters->serial_run_s += std::chrono::duration<double>(Clock::now() - start).count();
    return outcome;
  };

  if (specs.size() == 1 && !spec.sweep) {
    result.jobs.push_back({specs.front(), run_cell(specs.front())});
  } else {
    std::vector<const Table*> tables;
    for (const std::shared_ptr<const EngineTable>& input : result.tables) {
      tables.push_back(&input->table);
    }
    std::vector<AnonymizationOutcome> outcomes;
    {
      ScopedSpan span(tracer, "batch.sweep");
      outcomes = AnonymizeBatch(ToBatchJobs(specs, tables, result.artifacts));
    }
    // The same grid as single-job runs, for the batch driver's speedup and
    // the per-algorithm breakdown of the sweep's cells.
    counters->serial_run_s = 0;
    {
      ScopedSpan span(tracer, "batch.serial");
      for (std::size_t i = 0; i < specs.size(); ++i) {
        AnonymizationOutcome single = run_cell(specs[i]);
        if (single.kl_divergence != outcomes[i].kl_divergence ||
            single.stars != outcomes[i].stars) {
          counters->kl_agrees = false;
        }
      }
    }
    for (std::size_t i = 0; i < specs.size(); ++i) {
      result.jobs.push_back({specs[i], std::move(outcomes[i])});
    }
  }

  // 7-8. Outputs, in WriteJobOutputs' order.
  if (result.jobs.size() == 1) {
    const EngineJob& job = result.jobs.front();
    ScopedSpan span(tracer, "release.write");
    if (!WriteReleaseForOutcome(result.tables[job.spec.table_index]->table, job.outcome,
                                spec.out, error)) {
      return false;
    }
    tracer->SetBytes(span.index(), FileBytes(spec.out + ".csv") + FileBytes(spec.out + "_sa.csv"));
  }
  {
    ScopedSpan span(tracer, "report.write");
    ReportOptions report_options;
    report_options.include_seconds = spec.timings;
    if (!WriteJsonReport(result, spec.out + ".json", report_options, error) ||
        !WriteMetricsCsv(result, spec.out + "_metrics.csv", report_options, error)) {
      return false;
    }
  }

  for (const std::shared_ptr<const EngineTable>& input : result.tables) {
    if (input->paged == nullptr) continue;
    const PageCache::Stats& stats = input->paged->cache().stats();
    counters->pages.hits += stats.hits;
    counters->pages.misses += stats.misses;
    counters->pages.evictions += stats.evictions;
    counters->pages.refaults += stats.refaults;
  }
  counters->budget_peak = GlobalMemoryBudget().peak();
  return true;
}

constexpr const char* kOutputSuffixes[] = {".csv", "_sa.csv", ".json", "_metrics.csv"};

/// Byte-compares the outputs at stem `a` and stem `b`; "" when identical.
std::string CompareOutputs(const std::string& a, const std::string& b) {
  for (const char* suffix : kOutputSuffixes) {
    const bool in_a = FileExists(a + suffix);
    if (in_a != FileExists(b + suffix)) return std::string(suffix) + " present on one side only";
    if (!in_a) continue;
    if (ReadFile(a + suffix) != ReadFile(b + suffix)) return std::string(suffix) + " differs";
  }
  return "";
}

void RemoveOutputs(const std::string& stem) {
  for (const char* suffix : kOutputSuffixes) std::remove((stem + suffix).c_str());
}

int TraceMain(const std::string& mode, const std::string& manifest_path,
              const std::string& workdir, const std::string& trace_path,
              const std::string& socket_path) {
  const bool daemon = mode == "daemon";
  if (!daemon && mode != "oneshot") {
    std::fprintf(stderr, "ldiv_benchtool: trace mode must be oneshot or daemon\n");
    return 1;
  }
  std::ifstream manifest(manifest_path);
  if (!manifest) {
    std::fprintf(stderr, "ldiv_benchtool: cannot read %s\n", manifest_path.c_str());
    return 1;
  }
  Tracer tracer;
  // One-shot jobs each start a cold process; daemon jobs share one engine
  // and one set of caches, warmed by the same jobs the daemon saw.
  std::unique_ptr<Engine> engine = std::make_unique<Engine>();
  std::unique_ptr<ReplayCaches> caches = std::make_unique<ReplayCaches>();
  DatasetCache::Stats dataset_stats;
  ArtifactCache::Stats artifact_stats;
  auto add_engine_stats = [&] {
    const DatasetCache::Stats d = engine->dataset_cache().stats();
    const ArtifactCache::Stats a = engine->artifact_cache().stats();
    dataset_stats.hits += d.hits;
    dataset_stats.misses += d.misses;
    dataset_stats.evictions += d.evictions;
    artifact_stats.hits += a.hits;
    artifact_stats.misses += a.misses;
    artifact_stats.evictions += a.evictions;
  };

  std::string line;
  int index = 0;
  while (std::getline(manifest, line)) {
    if (line.empty()) continue;
    std::vector<std::string> fields = SplitTabs(line);
    if (fields.size() < 3) {
      std::fprintf(stderr, "ldiv_benchtool: malformed trace manifest line\n");
      return 1;
    }
    const bool warm = fields[0] == "warm";
    const std::string ref_stem = fields[1];
    std::string error;
    std::optional<ResolvedJobSpec> resolved =
        ParseJobFlags(std::vector<std::string>(fields.begin() + 2, fields.end()), &error);
    if (!resolved) {
      std::fprintf(stderr, "ldiv_benchtool: %s\n", error.c_str());
      return 1;
    }
    const int job = index++;
    tracer.SetJob(job);
    if (!daemon) {
      engine = std::make_unique<Engine>();
      caches = std::make_unique<ReplayCaches>();
    }

    // The daemon round trip, for the daemon layer's overhead.
    double roundtrip_s = 0;
    std::string mismatch;
    const std::string daemon_stem = workdir + "/trace_daemon_" + std::to_string(job);
    if (daemon && !warm) {
      JobSpec request = resolved->spec;
      request.out = daemon_stem;
      Frame reply;
      std::map<std::string, std::string> kv;
      const int span = tracer.Begin("daemon.request");
      const bool sent =
          DaemonRequest(socket_path, Frame{"job", SerializeJobSpec(request)}, &reply, &kv, &error);
      tracer.End(span);
      roundtrip_s = tracer.span(span).end - tracer.span(span).start;
      if (!sent || reply.verb != "ok") mismatch = "daemon request failed: " + error + kv["error"];
    }

    // Engine::Execute on the same spec: the untraced in-process time.
    JobSpec execute_spec = resolved->spec;
    execute_spec.out = workdir + "/trace_engine_" + std::to_string(job);
    const int execute_span = tracer.Begin("engine.execute");
    Expected<ExecuteSummary, PipelineError> executed = engine->Execute(execute_spec);
    tracer.End(execute_span);
    const double execute_s = tracer.span(execute_span).end - tracer.span(execute_span).start;
    if (!executed.ok()) mismatch = "Engine::Execute failed: " + executed.error().message;
    if (!daemon) add_engine_stats();

    // The traced replay.
    ResolvedJobSpec replay = *resolved;
    replay.spec.out = workdir + "/trace_replay_" + std::to_string(job);
    JobCounters counters;
    const int job_span = tracer.Begin("job");
    bool replayed = false;
    try {
      replayed = ReplayJob(replay, caches.get(), &tracer, &counters, &error);
    } catch (const IoFailure& failure) {
      error = failure.what();
    }
    tracer.End(job_span);
    if (!replayed) mismatch = "replay failed: " + error;
    counters.spill_live_after = SpillFile::LiveCount();
    if (!counters.kl_agrees) mismatch = "sweep cells disagree between batch and single runs";

    const std::string reference = daemon ? daemon_stem : ref_stem;
    if (!warm && mismatch.empty()) {
      mismatch = CompareOutputs(reference, replay.spec.out);
      if (!mismatch.empty()) {
        mismatch = "replay vs reference: " + mismatch;
      } else {
        mismatch = CompareOutputs(reference, execute_spec.out);
        if (!mismatch.empty()) mismatch = "Engine::Execute vs reference: " + mismatch;
      }
    }
    RemoveOutputs(replay.spec.out);
    RemoveOutputs(execute_spec.out);
    if (daemon) RemoveOutputs(daemon_stem);
    if (warm) continue;

    const Tracer::Span& root = tracer.span(job_span);
    std::printf(
        "{\"job\": %d, \"identical\": %s, \"mismatch\": \"%s\", \"wall_s\": %s, "
        "\"covered_s\": %s, \"execute_s\": %s, \"roundtrip_s\": %s, \"cells\": %llu, "
        "\"serial_run_s\": %s, \"dataset_misses\": %llu, \"artifact_misses\": %llu, "
        "\"page_hits\": %llu, \"page_misses\": %llu, \"page_evictions\": %llu, "
        "\"page_refaults\": %llu, \"budget_peak_bytes\": %llu, \"spill_live_after\": %llu, "
        "\"spans\": %s}\n",
        job, mismatch.empty() ? "true" : "false", JsonEscape(mismatch).c_str(),
        Num(root.end - root.start).c_str(), Num(tracer.ChildWall(job_span)).c_str(),
        Num(execute_s).c_str(), Num(roundtrip_s).c_str(),
        static_cast<unsigned long long>(counters.cells), Num(counters.serial_run_s).c_str(),
        static_cast<unsigned long long>(counters.dataset_misses),
        static_cast<unsigned long long>(counters.artifact_misses),
        static_cast<unsigned long long>(counters.pages.hits),
        static_cast<unsigned long long>(counters.pages.misses),
        static_cast<unsigned long long>(counters.pages.evictions),
        static_cast<unsigned long long>(counters.pages.refaults),
        static_cast<unsigned long long>(counters.budget_peak),
        static_cast<unsigned long long>(counters.spill_live_after),
        tracer.JobSummaryJson(job).c_str());
    std::fflush(stdout);
  }
  if (daemon) add_engine_stats();
  std::printf(
      "{\"final\": true, \"dataset_hits\": %llu, \"dataset_misses\": %llu, "
      "\"dataset_evictions\": %llu, \"artifact_hits\": %llu, \"artifact_misses\": %llu, "
      "\"artifact_evictions\": %llu}\n",
      static_cast<unsigned long long>(dataset_stats.hits),
      static_cast<unsigned long long>(dataset_stats.misses),
      static_cast<unsigned long long>(dataset_stats.evictions),
      static_cast<unsigned long long>(artifact_stats.hits),
      static_cast<unsigned long long>(artifact_stats.misses),
      static_cast<unsigned long long>(artifact_stats.evictions));
  if (!tracer.WriteChromeTrace(trace_path)) {
    std::fprintf(stderr, "ldiv_benchtool: cannot write %s\n", trace_path.c_str());
    return 1;
  }
  return 0;
}

int InfoMain() {
  SetThreadBudget(0);
  std::printf("{\"simd\": \"%s\", \"thread_budget\": %u, \"hardware_threads\": %u}\n",
              simd::LevelName(simd::ActiveLevel()), ThreadBudget(), HardwareThreads());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string command = argc > 1 ? argv[1] : "";
  if (command == "info" && argc == 2) return InfoMain();
  if (command == "verify" && argc == 3) return VerifyMain(argv[2]);
  if (command == "trace" && (argc == 6 || argc == 7)) {
    return TraceMain(argv[2], argv[3], argv[4], argv[5], argc == 7 ? argv[6] : "");
  }
  std::fprintf(stderr,
               "usage: ldiv_benchtool info\n"
               "       ldiv_benchtool verify MANIFEST\n"
               "       ldiv_benchtool trace oneshot|daemon MANIFEST WORKDIR TRACE_JSON "
               "[SOCKET]\n");
  return 1;
}
