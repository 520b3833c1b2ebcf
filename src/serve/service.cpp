#include "src/serve/service.h"

#include "src/util/logging.h"
#include "src/util/telemetry/telemetry.h"

namespace lce {
namespace serve {

EstimationService::ModelState::ModelState(const std::string& model_name)
    : name(model_name),
      requests(telemetry::MetricsRegistry::Global().counter(
          "serve." + model_name + ".requests")),
      explains(telemetry::MetricsRegistry::Global().counter(
          "serve." + model_name + ".explains")) {}

EstimationService::EstimationService(const storage::Database* db,
                                     const BatcherOptions& options)
    : db_(db), options_(options) {
  LCE_CHECK(db_ != nullptr);
}

uint64_t EstimationService::RegisterModel(
    const std::string& name, std::shared_ptr<ce::Estimator> estimator) {
  // Publish the build before creating the model's runtime state: a request
  // that finds the state then always resolves an entry, since entries are
  // never removed, and a request racing the first registration finds no
  // state and gets NotFound.
  const uint64_t version = registry_.Register(name, std::move(estimator));
  {
    std::lock_guard<std::mutex> lock(mu_);
    std::unique_ptr<ModelState>& state = states_[name];
    if (state == nullptr) {
      state = std::make_unique<ModelState>(name);
      ModelState* raw = state.get();
      state->batcher = std::make_unique<MicroBatcher>(
          options_, [this, raw](const std::vector<query::Query>& queries,
                                std::vector<double>* estimates,
                                uint64_t* version) {
            // One registry resolve per flush: every request in the batch is
            // answered by the same model build. The requests found this
            // state, so the model is published (see above).
            std::shared_ptr<const ModelEntry> entry =
                registry_.Get(raw->name);
            LCE_CHECK_MSG(entry != nullptr,
                          "flush for unregistered model " << raw->name);
            *version = entry->version;
            *estimates = entry->estimator->EstimateBatch(queries);
          });
    }
  }
  return version;
}

std::vector<std::pair<std::string, uint64_t>> EstimationService::ListModels()
    const {
  return registry_.List();
}

EstimationService::ModelState* EstimationService::FindState(
    const std::string& model) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = states_.find(model);
  return it == states_.end() ? nullptr : it->second.get();
}

namespace {

Status ModelNotFound(const std::string& model) {
  return Status::NotFound("no model registered as '" + model + "'");
}

}  // namespace

Result<EstimateResponse> EstimationService::EstimateSql(
    const std::string& model, const std::string& sql) {
  Result<query::Query> parsed = query::ParseSql(sql, *db_);
  if (!parsed.ok()) return parsed.status();
  return Estimate(model, parsed.value());
}

Result<EstimateResponse> EstimationService::Estimate(const std::string& model,
                                                     const query::Query& q) {
  ModelState* state = FindState(model);
  if (state == nullptr) return ModelNotFound(model);
  MicroBatcher::Ticket ticket = state->batcher->Submit(q);
  state->requests.Increment();
  EstimateResponse resp;
  resp.estimate = ticket.estimate;
  resp.model = model;
  resp.model_version = ticket.model_version;
  resp.batch_size = ticket.batch_size;
  resp.queue_wait_us = ticket.queue_wait_us;
  return resp;
}

Result<ExplainResponse> EstimationService::ExplainSql(const std::string& model,
                                                      const std::string& sql) {
  Result<query::Query> parsed = query::ParseSql(sql, *db_);
  if (!parsed.ok()) return parsed.status();
  ModelState* state = FindState(model);
  std::shared_ptr<const ModelEntry> entry =
      state == nullptr ? nullptr : registry_.Get(model);
  if (entry == nullptr) return ModelNotFound(model);
  ExplainResponse out;
  out.response.estimate =
      entry->estimator->EstimateWithDiagnostics(parsed.value(), &out.record);
  state->explains.Increment();
  out.response.model = model;
  out.response.model_version = entry->version;
  out.response.batch_size = 1;
  return out;
}

}  // namespace serve
}  // namespace lce
