#include "serve/disagg.h"

#include <optional>
#include <string>

#include "core/migration.h"
#include "engine/engine.h"
#include "util/logging.h"

namespace tsi {

EngineKvMigrator::EngineKvMigrator(DistributedEngine* src,
                                   DistributedEngine* dst,
                                   int64_t dst_num_slots, CommCostModel link)
    : src_(src), dst_(dst), dst_num_slots_(dst_num_slots), link_(link) {
  TSI_CHECK(src_ != nullptr && dst_ != nullptr);
  TSI_CHECK_GT(dst_num_slots_, 0);
  TSI_CHECK_EQ(src_->spec().kv.page_size, dst_->spec().kv.page_size)
      << "KV migration needs one page size across pools";
  if (dst_->spec().attn == AttnSharding::kBatch) {
    TSI_CHECK_EQ(dst_num_slots_ % dst_->machine().num_chips(), 0)
        << "kBatch decode frame must divide over the decode pool's chips";
  }
}

KvMigrator::Result EngineKvMigrator::Migrate(int64_t src_slot, int64_t dst_slot,
                                             int64_t context) {
  TSI_CHECK_EQ(src_->slot_length(src_slot), context)
      << "migration context out of sync with the prefill pool's cache";
  SlotPages state = src_->ExportSlot(src_slot);
  const int64_t group =
      dst_->spec().attn == AttnSharding::kBatch
          ? dst_slot / (dst_num_slots_ / dst_->machine().num_chips())
          : 0;
  dst_->ImportSlot(dst_slot, state, group);

  const KvMigrationCost c =
      EstimateKvMigration(src_->config(), context,
                          src_->machine().bytes_per_element(),
                          src_->spec().kv.page_size, link_);
  // Book the egress on the chips that held the shipped copy. Exactly one
  // full-head copy crosses the link (core/migration.h): under chunked
  // kHeads the x-rank-0 chips each ship their head chunk; under kBatch (or
  // replicated kv heads) one chip ships everything. Bytes only -- the
  // transfer occupies the link, not the chips' clocks.
  SimMachine& m = src_->machine();
  const int yz = m.topo().y() * m.topo().z();
  if (src_->spec().attn == AttnSharding::kBatch) {
    for (int chip = 0; chip < m.num_chips(); ++chip) {
      if (src_->cache().SlotResidentOn(chip, src_slot)) {
        m.ChargeNetwork(chip, c.bytes);
        break;
      }
    }
  } else if (yz > 1 && src_->config().n_kv_heads() % yz == 0) {
    for (int chip = 0; chip < m.num_chips(); ++chip)
      if (m.topo().RankInGroup(chip, kAxisX) == 0)
        m.ChargeNetwork(chip, c.bytes / yz);
  } else {
    m.ChargeNetwork(0, c.bytes);
  }
  return {c.bytes, c.seconds};
}

AnalyticKvMigrator::AnalyticKvMigrator(const ModelConfig& config,
                                       const PartitionSpec& decode_spec,
                                       AnalyticServeBackend* decode,
                                       CommCostModel link)
    : config_(config),
      page_size_(decode_spec.kv_page_size),
      bytes_per_element_(ActivationBytes(decode_spec.kv_format)),
      decode_(decode),
      link_(link) {
  TSI_CHECK(decode_ != nullptr);
}

KvMigrator::Result AnalyticKvMigrator::Migrate(int64_t /*src_slot*/,
                                               int64_t dst_slot,
                                               int64_t context) {
  const KvMigrationCost c = EstimateKvMigration(
      config_, context, bytes_per_element_, page_size_, link_);
  decode_->SetSlotContext(dst_slot, static_cast<double>(context));
  return {c.bytes, c.seconds};
}

AnalyticDisaggRun RunAnalyticDisaggServing(const InferenceEstimator& estimator,
                                           const DisaggConfig& config,
                                           std::vector<ServeRequest> requests,
                                           const ServeOptions& options) {
  AnalyticServeBackend decode(
      &estimator, AnalyticServeConfig{config.decode_spec, config.decode_slots});
  std::optional<AnalyticServeBackend> prefill;
  std::optional<AnalyticKvMigrator> migrator;
  if (config.prefill_slots > 0) {
    TSI_CHECK(config.prefill_spec.kv_format == config.decode_spec.kv_format)
        << "pools must store KV in one format to migrate it";
    TSI_CHECK_EQ(config.prefill_spec.kv_page_size,
                 config.decode_spec.kv_page_size)
        << "KV migration needs one page size across pools";
    prefill.emplace(&estimator, AnalyticServeConfig{config.prefill_spec,
                                                    config.prefill_slots});
    migrator.emplace(estimator.config(), config.decode_spec, &decode,
                     config.link);
  }
  AnalyticDisaggRun run;
  run.report = RunServing(prefill ? *prefill : decode, decode,
                          migrator ? &*migrator : nullptr, std::move(requests),
                          options);
  if (prefill) {
    run.prefill_busy_seconds = prefill->busy_seconds();
    run.prefill_processed_tokens = prefill->processed_tokens();
    run.prefill_cost = prefill->total_cost();
  }
  run.decode_busy_seconds = decode.busy_seconds();
  run.decode_processed_tokens = decode.processed_tokens();
  run.decode_cost = decode.total_cost();
  return run;
}

int ApplyPlanCache(const plan::PlanCache& plans, const std::string& model,
                   double expected_prompt, double expected_context,
                   DisaggConfig* config) {
  TSI_CHECK(config != nullptr);
  int adopted = 0;
  auto adopt = [&](PartitionSpec* spec, Phase phase, double batch,
                   double context, const char* pool) {
    const plan::TunedPlan* hit = plans.Lookup(
        model, spec->mesh.num_chips(), phase, batch, context);
    if (hit == nullptr) return;
    TSI_CHECK_EQ(hit->spec.mesh.num_chips(), spec->mesh.num_chips())
        << "cached plan resizes the " << pool << " pool";
    TSI_LOG(DEBUG) << "disagg " << pool << " pool adopts tuned plan "
                   << hit->key.ToString() << " -> " << hit->spec.ToString();
    *spec = hit->spec;
    ++adopted;
  };
  if (config->prefill_slots > 0)
    adopt(&config->prefill_spec, Phase::kPrefill, /*batch=*/1,
          expected_prompt, "prefill");
  adopt(&config->decode_spec, Phase::kDecode,
        static_cast<double>(config->decode_slots), expected_context, "decode");
  return adopted;
}

}  // namespace tsi
