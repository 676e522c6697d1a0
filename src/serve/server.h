// ModelServer — concurrent serving front end for a fitted api::Model.
//
// The paper's frozen-quotient scoring (ProfileSet::freeze, Eq. 14) makes a
// fitted model a read-only object, which is exactly what a snapshot server
// wants: the server holds one immutable std::shared_ptr<const Model> and
// hands copies of it to any number of predictor threads. A mutex guards
// only that pointer copy (nanoseconds), never a sweep. Publishing a new
// model — a refit, a StreamingMgcpl drain rebuilt into a Model, or a
// Model::from_json hot-reload — swaps the pointer under the same mutex:
// in-flight batches keep scoring against the snapshot they loaded (their
// shared_ptr keeps it alive), new batches see the new model, and nobody
// stalls behind a sweep.
//
// submit()/predict(row) enqueue single rows into a BatchQueue; a
// dispatcher thread coalesces them (up to max_batch, lingering
// BatchQueue::kLingerUs) and answers each batch with one frozen
// Model::predict_rows sweep fanned over the shared pool, against ONE
// snapshot (never a torn sweep across a swap). Rows must already be in
// the model's encoding (Model::encoding_map translates foreign sources);
// out-of-domain codes score as missing, exactly as predict_row documents.
//
// Contract mirrors StreamingMgcpl::classify: with no published snapshot
// every request answers -1 — there is nothing to assign to, and pretending
// "cluster 0" would alias a future model's first cluster. A swap to a model
// with a different feature count than the server's row width throws
// std::invalid_argument before anything is published.
//
// stats() returns api::ServeEvidence — request/batch/swap counters, batch
// occupancy, throughput, and p50/p99 submit-to-label latency over the
// newest kLatencySamples requests — ready to drop into a RunReport ("serve"
// object in the JSON).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "api/json.h"
#include "api/model.h"
#include "api/report.h"
#include "common/timer.h"
#include "serve/batch_queue.h"

namespace mcdc::serve {

// Nearest-rank percentile of an unsorted sample: rank = ceil(p * N) - 1,
// so p99 of 100 samples is the 99th order statistic, not the maximum. 0 for
// an empty sample. Reorders `sample` (nth_element), so a caller can take
// several percentiles of one copy.
double percentile(std::vector<double>& sample, double p);

struct ServeConfig {
  // Rows per drained batch; 1 degenerates to an unbatched request loop,
  // one sweep per request.
  std::size_t max_batch = BatchQueue::kDefaultMaxBatch;
  // Feature count served when constructed without a model (a server that
  // starts empty and gets its first snapshot via swap()); ignored when a
  // model is given.
  std::size_t row_width = 0;
};

class ModelServer {
 public:
  // Submit-to-label latency samples kept for the percentiles (a ring: the
  // most recent samples win).
  static constexpr std::size_t kLatencySamples = 1 << 14;

  // Throws std::invalid_argument when neither `model` nor
  // config.row_width gives a row width.
  explicit ModelServer(std::shared_ptr<const api::Model> model = nullptr,
                       ServeConfig config = {});
  ~ModelServer();

  ModelServer(const ModelServer&) = delete;
  ModelServer& operator=(const ModelServer&) = delete;

  // The currently published snapshot (nullptr while empty): a pointer
  // copy under a mutex held for nanoseconds. The returned shared_ptr keeps
  // the model alive however long the caller scores against it.
  std::shared_ptr<const api::Model> snapshot() const;

  // Publishes `next` (nullptr unpublishes) and returns the previous
  // snapshot, in one exchange under the snapshot mutex. In-flight batches
  // finish on the model they loaded. Throws std::invalid_argument when
  // `next`'s feature count does not match the server's row width.
  std::shared_ptr<const api::Model> swap(
      std::shared_ptr<const api::Model> next);

  // Hot-reload: Model::from_json + swap. Throws std::runtime_error on
  // malformed model JSON (nothing is published then).
  std::shared_ptr<const api::Model> swap_json(const api::Json& model_json);

  // Single-row request through the batching queue; blocks until the
  // dispatcher answers. -1 when no snapshot is published. The row must
  // hold row_width() values in the model's encoding; the queue copies it.
  int predict(const data::Value* row);
  // The asynchronous form: enqueue now, redeem the label later.
  std::future<int> submit(const data::Value* row);

  std::size_t row_width() const { return row_width_; }

  api::ServeEvidence stats() const;

  // The retained submit-to-label latency ring (microseconds, unordered) —
  // for consumers that merge samples across servers before taking
  // percentiles (serve::ServingCluster), where averaging per-shard
  // percentiles would be wrong.
  std::vector<double> latency_samples() const;

  // Rejects new submits, drains pending requests and joins the
  // dispatcher. Idempotent; the destructor calls it.
  void stop();

 private:
  void dispatch_loop();
  void record_batch(const BatchQueue::Batch& batch, double now_seconds);
  // swap() with the publishing call site named in the width-mismatch error
  // (api::feature_width_message), so swap_json and binary reloads report
  // their own context.
  std::shared_ptr<const api::Model> publish(
      std::shared_ptr<const api::Model> next, const char* context);

  std::size_t row_width_ = 0;

  // The published snapshot; the mutex guards only the pointer copy.
  mutable std::mutex snapshot_mutex_;
  std::shared_ptr<const api::Model> snapshot_;

  std::unique_ptr<BatchQueue> queue_;
  std::thread dispatcher_;

  std::atomic<std::uint64_t> swaps_{0};

  // Serving counters; written by the dispatcher only, read via stats().
  mutable std::mutex stats_mutex_;
  std::uint64_t requests_ = 0;
  std::uint64_t batches_ = 0;
  std::vector<double> latency_us_;  // ring of the last kLatencySamples
  std::size_t latency_next_ = 0;
  Timer session_;                 // epoch for the throughput window
  double first_batch_seconds_ = -1.0;
  double last_batch_seconds_ = -1.0;
};

}  // namespace mcdc::serve
