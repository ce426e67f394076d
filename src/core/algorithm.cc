#include "core/algorithm.h"

#include <cctype>
#include <utility>

#include "anonymity/anatomy.h"
#include "anonymity/eligibility.h"
#include "common/check.h"
#include "core/tp_plus.h"
#include "metrics/kl_divergence.h"
#include "mondrian/mondrian.h"

namespace ldv {

const char* AlgorithmName(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kTp:
      return "TP";
    case Algorithm::kTpPlus:
      return "TP+";
    case Algorithm::kHilbert:
      return "Hilbert";
    case Algorithm::kMondrian:
      return "Mondrian";
    case Algorithm::kAnatomy:
      return "Anatomy";
    case Algorithm::kTds:
      return "TDS";
  }
  LDIV_CHECK(false) << "unknown Algorithm value " << static_cast<int>(algorithm);
  return "";
}

const char* MethodologyName(Methodology methodology) {
  switch (methodology) {
    case Methodology::kSuppression:
      return "suppression";
    case Methodology::kMultiDimensional:
      return "multi-dimensional";
    case Methodology::kSingleDimensional:
      return "single-dimensional";
    case Methodology::kBucketization:
      return "bucketization";
  }
  LDIV_CHECK(false) << "unknown Methodology value " << static_cast<int>(methodology);
  return "";
}

bool AlgorithmUsesGroupedArtifact(Algorithm algorithm) {
  return algorithm == Algorithm::kTp || algorithm == Algorithm::kTpPlus;
}

bool AlgorithmUsesHilbertOrderArtifact(Algorithm algorithm) {
  return algorithm == Algorithm::kHilbert;
}

AnonymizationOutcome Anonymizer::Run(const Table& table, std::uint32_t l) const {
  Workspace workspace;
  return Run(table, l, &workspace);
}

AnonymizationOutcome Anonymizer::Run(const Table& table, std::uint32_t l,
                                     Workspace* workspace) const {
  return Run(table, l, workspace, nullptr);
}

AnonymizationOutcome Anonymizer::Run(const Table& table, std::uint32_t l, Workspace* workspace,
                                     const TableArtifacts* artifacts) const {
  LDIV_CHECK(workspace != nullptr);
  AnonymizationOutcome outcome;
  outcome.algorithm = id_;
  outcome.methodology = methodology_;
  if (!RunRaw(table, l, workspace, artifacts, &outcome)) return outcome;
  outcome.feasible = true;
  LDIV_DCHECK(outcome.partition.CoversExactly(table));
  LDIV_DCHECK(IsLDiverse(table, outcome.partition, l));

  // Shared post-processing: every algorithm reports the same utility
  // metrics, computed once here rather than by each bench.
  outcome.group_stats = ComputeGroupSizeStats(outcome.partition);
  if (methodology_ != Methodology::kBucketization) {
    auto generalized = std::make_shared<GeneralizedTable>(table, outcome.partition);
    outcome.stars = generalized->StarCount();
    outcome.suppressed_tuples = generalized->SuppressedTupleCount();
    outcome.generalized = std::move(generalized);
  }
  if (options_.compute_kl) {
    switch (methodology_) {
      case Methodology::kSuppression:
        outcome.kl_divergence = KlDivergenceSuppression(table, *outcome.generalized);
        break;
      case Methodology::kMultiDimensional:
        outcome.kl_divergence = KlDivergenceMultiDim(table, *outcome.boxes);
        break;
      case Methodology::kSingleDimensional:
        outcome.kl_divergence = KlDivergenceSingleDim(table, *outcome.single_dim);
        break;
      case Methodology::kBucketization:
        outcome.kl_divergence = KlDivergenceAnatomy(table, outcome.partition);
        break;
    }
  }
  return outcome;
}

namespace {

class TpAnonymizer final : public Anonymizer {
 public:
  explicit TpAnonymizer(AnonymizerOptions options)
      : Anonymizer(Algorithm::kTp, Methodology::kSuppression, options) {}

  bool RunRaw(const Table& table, std::uint32_t l, Workspace* workspace,
              const TableArtifacts* artifacts, AnonymizationOutcome* out) const override {
    TpResult r = (artifacts != nullptr && artifacts->grouped != nullptr)
                     ? RunTp(*artifacts->grouped, l)
                     : RunTp(table, l, workspace);
    if (!r.feasible) return false;
    out->partition = r.ToPartition();
    out->seconds = r.seconds;
    out->tp_stats = r.stats;
    return true;
  }
};

class TpPlusAnonymizer final : public Anonymizer {
 public:
  explicit TpPlusAnonymizer(AnonymizerOptions options)
      : Anonymizer(Algorithm::kTpPlus, Methodology::kSuppression, options) {}

  bool RunRaw(const Table& table, std::uint32_t l, Workspace* workspace,
              const TableArtifacts* artifacts, AnonymizationOutcome* out) const override {
    const GroupedTable* grouped =
        artifacts != nullptr ? artifacts->grouped.get() : nullptr;
    TpPlusResult r = RunTpPlus(table, l, options().hilbert, workspace, grouped);
    if (!r.feasible) return false;
    out->partition = std::move(r.partition);
    out->seconds = r.seconds();
    out->tp_stats = r.tp_stats;
    return true;
  }
};

class HilbertAnonymizer final : public Anonymizer {
 public:
  explicit HilbertAnonymizer(AnonymizerOptions options)
      : Anonymizer(Algorithm::kHilbert, Methodology::kSuppression, options) {}

  bool RunRaw(const Table& table, std::uint32_t l, Workspace* workspace,
              const TableArtifacts* artifacts, AnonymizationOutcome* out) const override {
    const std::vector<RowId>* order =
        artifacts != nullptr ? artifacts->hilbert_order.get() : nullptr;
    HilbertResult r = HilbertAnonymize(table, l, options().hilbert, workspace, order);
    if (!r.feasible) return false;
    out->partition = std::move(r.partition);
    out->seconds = r.seconds;
    return true;
  }
};

class MondrianAnonymizer final : public Anonymizer {
 public:
  explicit MondrianAnonymizer(AnonymizerOptions options)
      : Anonymizer(Algorithm::kMondrian, Methodology::kMultiDimensional, options) {}

  bool RunRaw(const Table& table, std::uint32_t l, Workspace* workspace,
              const TableArtifacts* /*artifacts*/, AnonymizationOutcome* out) const override {
    MondrianResult r = MondrianAnonymize(table, l, workspace);
    if (!r.feasible) return false;
    out->partition = std::move(r.partition);
    out->boxes = std::make_shared<BoxGeneralization>(std::move(r.generalization));
    out->seconds = r.seconds;
    return true;
  }
};

class AnatomyAnonymizer final : public Anonymizer {
 public:
  explicit AnatomyAnonymizer(AnonymizerOptions options)
      : Anonymizer(Algorithm::kAnatomy, Methodology::kBucketization, options) {}

  bool RunRaw(const Table& table, std::uint32_t l, Workspace* workspace,
              const TableArtifacts* /*artifacts*/, AnonymizationOutcome* out) const override {
    (void)workspace;  // Anatomy's deterministic max-heap greedy has no hot scratch.
    AnatomyResult r = AnatomyAnonymize(table, l);
    if (!r.feasible) return false;
    out->partition = std::move(r.partition);
    out->seconds = r.seconds;
    return true;
  }
};

class TdsAnonymizer final : public Anonymizer {
 public:
  explicit TdsAnonymizer(AnonymizerOptions options)
      : Anonymizer(Algorithm::kTds, Methodology::kSingleDimensional, options) {}

  bool RunRaw(const Table& table, std::uint32_t l, Workspace* workspace,
              const TableArtifacts* /*artifacts*/, AnonymizationOutcome* out) const override {
    (void)workspace;  // TDS is dominated by its taxonomy walks, not scratch churn.
    TdsResult r = RunTds(table, l);
    if (!r.feasible) return false;
    out->partition = std::move(r.partition);
    out->single_dim = std::move(r.generalization);
    out->specializations = r.specializations;
    out->seconds = r.seconds;
    return true;
  }
};

template <typename T>
std::unique_ptr<Anonymizer> MakeAnonymizer(const AnonymizerOptions& options) {
  return std::make_unique<T>(options);
}

bool NameEqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

}  // namespace

AlgorithmRegistry& AlgorithmRegistry::Global() {
  static AlgorithmRegistry* registry = [] {
    auto* r = new AlgorithmRegistry();
    r->Register(Algorithm::kTp, &MakeAnonymizer<TpAnonymizer>);
    r->Register(Algorithm::kTpPlus, &MakeAnonymizer<TpPlusAnonymizer>);
    r->Register(Algorithm::kHilbert, &MakeAnonymizer<HilbertAnonymizer>);
    r->Register(Algorithm::kMondrian, &MakeAnonymizer<MondrianAnonymizer>);
    r->Register(Algorithm::kAnatomy, &MakeAnonymizer<AnatomyAnonymizer>);
    r->Register(Algorithm::kTds, &MakeAnonymizer<TdsAnonymizer>);
    return r;
  }();
  return *registry;
}

void AlgorithmRegistry::Register(Algorithm id, Factory factory) {
  LDIV_CHECK(factory != nullptr);
  Entry& entry = entries_[static_cast<std::size_t>(id)];
  LDIV_CHECK(entry.factory == nullptr)
      << "duplicate registration for algorithm " << AlgorithmName(id);
  entry.factory = factory;
  entry.default_instance = factory(AnonymizerOptions{});
  LDIV_CHECK(entry.default_instance->id() == id)
      << "factory for " << AlgorithmName(id) << " built "
      << entry.default_instance->name();
}

const Anonymizer& AlgorithmRegistry::Get(Algorithm id) const {
  const Entry& entry = entries_[static_cast<std::size_t>(id)];
  LDIV_CHECK(entry.default_instance != nullptr)
      << "algorithm " << AlgorithmName(id) << " is not registered";
  return *entry.default_instance;
}

const Anonymizer* AlgorithmRegistry::Find(std::string_view name) const {
  for (const Entry& entry : entries_) {
    if (entry.default_instance != nullptr &&
        NameEqualsIgnoreCase(entry.default_instance->name(), name)) {
      return entry.default_instance.get();
    }
  }
  return nullptr;
}

std::unique_ptr<Anonymizer> AlgorithmRegistry::Create(Algorithm id,
                                                      const AnonymizerOptions& options) const {
  const Entry& entry = entries_[static_cast<std::size_t>(id)];
  LDIV_CHECK(entry.factory != nullptr)
      << "algorithm " << AlgorithmName(id) << " is not registered";
  return entry.factory(options);
}

std::vector<const Anonymizer*> AlgorithmRegistry::All() const {
  std::vector<const Anonymizer*> result;
  for (const Entry& entry : entries_) {
    if (entry.default_instance != nullptr) result.push_back(entry.default_instance.get());
  }
  return result;
}

}  // namespace ldv
