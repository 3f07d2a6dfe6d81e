#ifndef SKYEX_SERVE_SERVICE_H_
#define SKYEX_SERVE_SERVICE_H_

// The linkage service behind the HTTP endpoints: typed request /
// response structs with their JSON forms, a thread-safe wrapper around
// core::IncrementalLinker (whose AddRecord mutates the dataset and must
// be serialized — see core/incremental.h), and the bootstrap that
// turns a dataset + saved model into calibrated linkers, one per shard
// of the serving deployment (src/shard/).

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/incremental.h"
#include "data/spatial_entity.h"
#include "obs/json.h"
#include "serve/json_writer.h"

namespace skyex::serve {

/// One record the new entity was linked to.
struct LinkedRecord {
  size_t record = 0;    // index into the served dataset
  uint64_t id = 0;      // the record's own id
  std::string name;
  std::string source;
};

/// Outcome of linking one entity.
struct LinkResult {
  size_t record_index = 0;  // where the new entity landed in the dataset
  std::vector<LinkedRecord> links;
  data::SpatialEntity merged;  // golden record of {entity} ∪ links
  bool degraded = false;       // answered by the fallback path
};

/// One scored candidate link as a shard reports it to the router: the
/// record's position in the *local* shard dataset, the match score
/// (prioritized group sum — see core::ScoredMatch), and a snapshot copy
/// of the record so the router can merge without reaching back into the
/// shard's dataset.
struct ScoredLink {
  size_t record = 0;
  double score = 0.0;
  data::SpatialEntity snapshot;
};

/// Ranks `links` deterministically — strongest score first, ties
/// broken by entity id, then by record index — and merges the golden
/// record of {entity} ∪ links. Shared by the shard router's gather and
/// LinkService::LinkMany, so both answer with the same bytes.
LinkResult RankAndMerge(std::vector<ScoredLink> links,
                        const data::SpatialEntity& entity,
                        size_t record_index);

/// Parses {"entity": {...}} / an entity object into `out`. `name` is
/// required; everything else optional ("source" accepts the names from
/// data::SourceName or an integer). False + `error` on bad input —
/// including non-finite lat/lon.
bool ParseEntityJson(const obs::json::Value& value,
                     data::SpatialEntity* out, std::string* error);

/// Writes an entity as a JSON object (omits missing attributes).
void WriteEntityJson(json::Writer* writer, const data::SpatialEntity& e);

/// Writes one LinkResult as a JSON object. When `request_id` is given
/// it is written as a leading "request_id" member (single-entity
/// responses echo the id in the body; see docs/serving.md).
void WriteLinkResultJson(json::Writer* writer, const LinkResult& result,
                         const std::string* request_id = nullptr);

/// Serializes IncrementalLinker access behind one mutex — the write
/// contract of core/incremental.h. In the server each shard node's
/// worker thread is the service's only caller.
class LinkService {
 public:
  LinkService(core::IncrementalLinker linker, std::string model_text);

  /// Links each entity in order against the (growing) dataset:
  /// MatchScored(persist = true), then RankAndMerge, so record indices
  /// are local to this service. The in-process reference for what the
  /// served path answers; not for use alongside another writer.
  std::vector<LinkResult> LinkMany(
      const std::vector<data::SpatialEntity>& entities);

  /// Shard-side half of a scatter-gather link: scores `entity` against
  /// this service's dataset and returns the accepted links (ascending
  /// local index order, unranked — the router ranks after gathering).
  /// When `persist` is true the entity is appended afterwards, exactly
  /// like AddRecord; the owner shard persists, peers only match.
  std::vector<ScoredLink> MatchScored(const data::SpatialEntity& entity,
                                      bool persist,
                                      core::AddRecordStats* stats = nullptr);

  size_t record_count() const;

  /// SaveModel text of the served model (immutable after construction).
  const std::string& model_text() const { return model_text_; }

  /// Shard identity stamped into audit records. Set once at bootstrap,
  /// before serving starts.
  void set_shard_id(uint32_t shard_id) { shard_id_ = shard_id; }
  uint32_t shard_id() const { return shard_id_; }

 private:
  mutable std::mutex mutex_;
  core::IncrementalLinker linker_;
  const std::string model_text_;
  uint32_t shard_id_ = 0;
};

/// Builds one LinkService per partition of a dataset and a trained
/// model: blocks the FULL dataset (QuadFlex with coordinates, Cartesian
/// without), extracts LGM-X features, labels every pair with the model,
/// and calibrates the incremental linkers' acceptance threshold on the
/// accepted pairs — once, so every partition links with the same
/// decision boundary (a pair links on a shard iff it links on one
/// shard holding everything). Each service holds its partition's
/// records plus the full-corpus extractor. `partitions[s]` lists the
/// dataset indices owned by shard s — every index in exactly one
/// partition, original order preserved. `model_text` (optional)
/// receives the served model text. Rejects models whose preference
/// reads feature indices outside the LGM-X schema (a corrupt or
/// mismatched model file would otherwise read out of bounds on every
/// request). Empty vector + `error` when the model is unusable or no
/// pair is accepted.
std::vector<std::unique_ptr<LinkService>> BootstrapShardedLinkServices(
    data::Dataset dataset, core::SkyExTModel model,
    const core::IncrementalLinkerOptions& options,
    const std::vector<std::vector<size_t>>& partitions,
    std::string* model_text, std::string* error);

/// The one-partition case of BootstrapShardedLinkServices. nullptr +
/// `error` on failure.
std::unique_ptr<LinkService> BootstrapLinkService(
    data::Dataset dataset, core::SkyExTModel model,
    const core::IncrementalLinkerOptions& options, std::string* error);

}  // namespace skyex::serve

#endif  // SKYEX_SERVE_SERVICE_H_
