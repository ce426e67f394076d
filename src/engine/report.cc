#include "engine/report.h"

#include <algorithm>
#include <charconv>
#include <cstdio>

#include "anonymity/release.h"
#include "common/csv.h"

namespace ldv {

namespace {

void AppendJsonString(const std::string& text, std::string* out) {
  out->push_back('"');
  for (char c : text) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

// Shortest-ish locale-independent double rendering; %.9g keeps every
// metric digit the tests compare while "12.5" stays "12.5".
std::string FormatDouble(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", value);
  return buf;
}

}  // namespace

std::string RenderJsonReport(const JobResult& result, const ReportOptions& options) {
  std::string json;
  json += "{\n";
  json += "  \"ldiv_report_version\": 1,\n";
  json += "  \"job_count\": " + std::to_string(result.jobs.size()) + ",\n";
  if (options.include_seconds) {
    // An execution detail like the wall-clock fields: recorded only when
    // timings are, so --no-timings reports stay byte-identical across
    // thread budgets.
    json += "  \"threads\": " + std::to_string(result.threads) + ",\n";
  }

  json += "  \"tables\": [\n";
  for (std::size_t t = 0; t < result.tables.size(); ++t) {
    const EngineTable& input = *result.tables[t];
    json += "    {\"index\": " + std::to_string(t) + ", \"source\": ";
    AppendJsonString(input.source, &json);
    json += ", \"rows\": " + std::to_string(input.table.size());
    json += ", \"qi_attributes\": " + std::to_string(input.table.qi_count());
    json += ", \"schema\": ";
    AppendJsonString(input.table.schema().ToString(), &json);
    json += t + 1 < result.tables.size() ? "},\n" : "}\n";
  }
  json += "  ],\n";

  json += "  \"jobs\": [\n";
  for (std::size_t i = 0; i < result.jobs.size(); ++i) {
    const EngineJob& job = result.jobs[i];
    const AnonymizationOutcome& outcome = job.outcome;
    json += "    {\n";
    json += "      \"job\": " + std::to_string(i) + ",\n";
    json += "      \"table\": " + std::to_string(job.spec.table_index) + ",\n";
    json += "      \"algorithm\": ";
    AppendJsonString(AlgorithmName(job.spec.algorithm), &json);
    json += ",\n";
    json += "      \"methodology\": ";
    AppendJsonString(MethodologyName(outcome.methodology), &json);
    json += ",\n";
    json += "      \"l\": " + std::to_string(job.spec.l) + ",\n";
    json += std::string("      \"feasible\": ") + (outcome.feasible ? "true" : "false") + ",\n";
    json += "      \"stars\": " + std::to_string(outcome.stars) + ",\n";
    json += "      \"suppressed_tuples\": " + std::to_string(outcome.suppressed_tuples) + ",\n";
    json += "      \"groups\": " + std::to_string(outcome.group_stats.group_count) + ",\n";
    json += "      \"min_group\": " + std::to_string(outcome.group_stats.min_size) + ",\n";
    json += "      \"max_group\": " + std::to_string(outcome.group_stats.max_size) + ",\n";
    json += "      \"mean_group\": " + FormatDouble(outcome.group_stats.mean_size) + ",\n";
    json += "      \"kl_divergence\": " + FormatDouble(outcome.kl_divergence) + ",\n";
    json += "      \"specializations\": " + std::to_string(outcome.specializations);
    if (options.include_seconds) {
      json += ",\n      \"seconds\": " + FormatDouble(outcome.seconds);
    }
    json += "\n";
    json += i + 1 < result.jobs.size() ? "    },\n" : "    }\n";
  }
  json += "  ]\n";
  json += "}\n";
  return json;
}

std::string RenderMetricsCsv(const JobResult& result, const ReportOptions& options) {
  std::string csv =
      "job,table,source,algorithm,methodology,l,rows,feasible,stars,"
      "suppressed_tuples,groups,min_group,max_group,mean_group,kl_divergence,"
      "specializations";
  if (options.include_seconds) csv += ",seconds";
  csv += "\n";
  for (std::size_t i = 0; i < result.jobs.size(); ++i) {
    const EngineJob& job = result.jobs[i];
    const AnonymizationOutcome& outcome = job.outcome;
    const EngineTable& input = *result.tables[job.spec.table_index];
    csv += std::to_string(i) + "," + std::to_string(job.spec.table_index) + ",";
    csv += CsvQuoteCell(input.source) + ",";
    csv += std::string(AlgorithmName(job.spec.algorithm)) + ",";
    csv += std::string(MethodologyName(outcome.methodology)) + ",";
    csv += std::to_string(job.spec.l) + ",";
    csv += std::to_string(input.table.size()) + ",";
    csv += std::string(outcome.feasible ? "true" : "false") + ",";
    csv += std::to_string(outcome.stars) + ",";
    csv += std::to_string(outcome.suppressed_tuples) + ",";
    csv += std::to_string(outcome.group_stats.group_count) + ",";
    csv += std::to_string(outcome.group_stats.min_size) + ",";
    csv += std::to_string(outcome.group_stats.max_size) + ",";
    csv += FormatDouble(outcome.group_stats.mean_size) + ",";
    csv += FormatDouble(outcome.kl_divergence) + ",";
    csv += std::to_string(outcome.specializations);
    if (options.include_seconds) {
      csv += ",";
      csv += FormatDouble(outcome.seconds);
    }
    csv += "\n";
  }
  return csv;
}

bool WriteJsonReport(const JobResult& result, const std::string& path,
                     const ReportOptions& options, std::string* error) {
  return WriteOutputFile(path, failpoint::Site::kReportWrite, [&](OutputSink& out) {
    out.Append(RenderJsonReport(result, options));
  }, error);
}

bool WriteMetricsCsv(const JobResult& result, const std::string& path,
                     const ReportOptions& options, std::string* error) {
  return WriteOutputFile(path, failpoint::Site::kReportWrite, [&](OutputSink& out) {
    out.Append(RenderMetricsCsv(result, options));
  }, error);
}

bool WriteReleaseForOutcome(const Table& table, const AnonymizationOutcome& outcome,
                            const std::string& stem, std::string* error) {
  if (!outcome.feasible) return true;
  if (outcome.generalized != nullptr) {
    return WriteReleaseCsv(table, *outcome.generalized, stem + ".csv", error);
  }

  // Anatomy pair: exact QI values linked to the sensitive table only
  // through bucket ids (Section 2's bucketization trade-off). Dictionary-
  // backed attributes decode to their labels through the same CsvCell
  // renderers as the suppression-view releases.
  const Schema& schema = table.schema();
  const Partition& buckets = outcome.partition;
  auto write_qit = [&](OutputSink& out) {
    AppendCsvHeader(schema, "Bucket", out);
    // Every row of a QI class renders the same QI cells: render each
    // class's prefix once into an arena, and each bucket's "<id>\n" once,
    // then append the two per row in bucket order.
    std::vector<std::uint32_t> class_of;
    const std::vector<RowId> first_rows = NumberQiClasses(table, &class_of);
    std::vector<CsvCell> qi_cells;
    for (AttrId a = 0; a < table.qi_count(); ++a) qi_cells.emplace_back(schema.qi(a));
    std::string arena;
    std::vector<std::size_t> prefix_end(first_rows.size() + 1, 0);
    for (std::size_t c = 0; c < first_rows.size(); ++c) {
      for (AttrId a = 0; a < table.qi_count(); ++a) {
        arena += qi_cells[a](table.qi(first_rows[c], a));
        arena += ',';
      }
      prefix_end[c + 1] = arena.size();
    }
    for (GroupId g = 0; g < buckets.group_count(); ++g) {
      char suffix[12];  // the longest GroupId in decimal, then '\n'
      char* end = std::to_chars(suffix, suffix + sizeof suffix - 1, g).ptr;
      *end++ = '\n';
      const std::string_view bucket_suffix(suffix, static_cast<std::size_t>(end - suffix));
      for (RowId row : buckets.group(g)) {
        const std::uint32_t c = class_of[row];
        out.Append(std::string_view(arena).substr(prefix_end[c], prefix_end[c + 1] - prefix_end[c]));
        out.Append(bucket_suffix);
      }
    }
  };
  auto write_st = [&](OutputSink& out) {
    out.Append("Bucket,");
    out.Append(CsvEscapeCell(schema.sensitive().name));
    out.Append(",Count\n");
    CsvCell sa_cell(schema.sensitive());
    // Per bucket, only the SA values it holds, in ascending order.
    std::vector<std::uint32_t> sa_counts(schema.sa_domain_size(), 0);
    std::vector<SaValue> present;
    for (GroupId g = 0; g < buckets.group_count(); ++g) {
      present.clear();
      for (RowId row : buckets.group(g)) {
        if (sa_counts[table.sa(row)]++ == 0) present.push_back(table.sa(row));
      }
      std::sort(present.begin(), present.end());
      for (SaValue v : present) {
        out.AppendUint(g);
        out.Append(',');
        out.Append(sa_cell(v));
        out.Append(',');
        out.AppendUint(sa_counts[v]);
        out.Append('\n');
        sa_counts[v] = 0;
      }
    }
  };
  if (!WriteOutputFile(stem + ".csv", failpoint::Site::kReleaseWrite, write_qit, error)) {
    return false;
  }
  if (WriteOutputFile(stem + "_sa.csv", failpoint::Site::kReleaseWrite, write_st, error)) {
    return true;
  }
  // The pair is published whole or not at all: without its sensitive
  // table the exact-QI half is not the release the report describes.
  RemoveRegularFile(stem + ".csv");
  return false;
}

std::optional<PipelineError> WriteJobOutputs(const JobSpec& spec, const JobResult& result,
                                             std::string* notices) {
  std::string error;
  if (!spec.emit_input.empty()) {
    // ResolveJobSpec guarantees a single-table grid when emit_input is
    // set, so tables.front() is the one input.
    if (!WriteTableCsv(result.tables.front()->table, spec.emit_input, &error)) {
      return IoError(error);
    }
    if (notices != nullptr) *notices += "wrote input table to " + spec.emit_input + "\n";
  }

  // A raw (dictionary-coded) input serializes its dictionaries alongside
  // the releases so the codes stay machine-recoverable.
  if (!result.tables.empty() && result.tables.front()->table.schema().has_dictionaries()) {
    std::string dict_path = spec.out + "_dict.csv";
    if (!WriteDictionaryCsv(result.tables.front()->table.schema(), dict_path, &error)) {
      return IoError(error);
    }
    if (notices != nullptr) *notices += "wrote value dictionaries to " + dict_path + "\n";
  }

  // Releases: single-job runs always write one; sweeps write per-job
  // releases only on request (write_releases).
  const bool single = result.jobs.size() == 1;
  for (std::size_t i = 0; i < result.jobs.size(); ++i) {
    if (!single && !spec.write_releases) break;
    const EngineJob& job = result.jobs[i];
    std::string stem = single ? spec.out : spec.out + ".job" + std::to_string(i);
    const Table& table = result.tables[job.spec.table_index]->table;
    if (!WriteReleaseForOutcome(table, job.outcome, stem, &error)) return IoError(error);
  }

  ReportOptions report_options;
  report_options.include_seconds = spec.timings;
  if (!WriteJsonReport(result, spec.out + ".json", report_options, &error) ||
      !WriteMetricsCsv(result, spec.out + "_metrics.csv", report_options, &error)) {
    return IoError(error);
  }
  return std::nullopt;
}

}  // namespace ldv
