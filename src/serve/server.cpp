#include "serve/server.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace mcdc::serve {

ModelServer::ModelServer(std::shared_ptr<const api::Model> model,
                         ServeConfig config)
    : row_width_(model != nullptr ? model->num_features() : config.row_width) {
  // Throws std::invalid_argument on a row width of 0.
  queue_ = std::make_unique<BatchQueue>(row_width_, config.max_batch);
  snapshot_ = std::move(model);
  // The ring is allocated once: growing it batch by batch would copy it
  // inside stats_mutex_ on the dispatcher thread.
  latency_us_.reserve(kLatencySamples);
  dispatcher_ = std::thread([this] { dispatch_loop(); });
}

ModelServer::~ModelServer() { stop(); }

std::shared_ptr<const api::Model> ModelServer::snapshot() const {
  std::lock_guard lock(snapshot_mutex_);
  return snapshot_;
}

std::shared_ptr<const api::Model> ModelServer::publish(
    std::shared_ptr<const api::Model> next, const char* context) {
  if (next != nullptr && next->num_features() != row_width_) {
    throw std::invalid_argument(api::feature_width_message(
        context, row_width_, next->num_features()));
  }
  swaps_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard lock(snapshot_mutex_);
  std::swap(snapshot_, next);
  return next;
}

std::shared_ptr<const api::Model> ModelServer::swap(
    std::shared_ptr<const api::Model> next) {
  return publish(std::move(next), "ModelServer::swap");
}

std::shared_ptr<const api::Model> ModelServer::swap_json(
    const api::Json& model_json) {
  return publish(std::make_shared<const api::Model>(
                     api::Model::from_json(model_json)),
                 "ModelServer::swap_json");
}

int ModelServer::predict(const data::Value* row) {
  return submit(row).get();
}

std::future<int> ModelServer::submit(const data::Value* row) {
  return queue_->submit(row);
}

void ModelServer::dispatch_loop() {
  BatchQueue::Batch batch;
  std::vector<int> labels;
  while (queue_->next_batch(batch)) {
    std::size_t fulfilled = 0;
    try {
      // One snapshot load serves the whole batch: a concurrent swap()
      // publishes for the *next* batch, never mid-sweep.
      const std::shared_ptr<const api::Model> model = snapshot();
      labels.assign(batch.count, -1);
      if (model != nullptr) {
        model->predict_rows(batch.rows.data(), batch.count, labels.data());
      }
      // Stats first, promises second: a producer that has redeemed all
      // its futures must find every one of its requests already counted.
      record_batch(batch, session_.elapsed_seconds());
      for (; fulfilled < batch.count; ++fulfilled) {
        batch.promises[fulfilled].set_value(labels[fulfilled]);
      }
    } catch (...) {
      // A failing sweep (bad_alloc under load, a throwing body rethrown
      // by parallel_chunks) fails the affected requests, never the
      // server: an exception escaping this thread would std::terminate
      // the process. Waiters see it from future::get().
      for (; fulfilled < batch.count; ++fulfilled) {
        batch.promises[fulfilled].set_exception(std::current_exception());
      }
    }
  }
}

void ModelServer::record_batch(const BatchQueue::Batch& batch,
                               double now_seconds) {
  std::lock_guard lock(stats_mutex_);
  requests_ += batch.count;
  ++batches_;
  if (first_batch_seconds_ < 0.0) {
    // The serving window opens at the first batch's earliest submit (its
    // largest queue age), not at its completion — otherwise a session
    // whose traffic coalesced into one batch would report a zero-length
    // window and zero throughput.
    double oldest = 0.0;
    for (std::size_t i = 0; i < batch.count; ++i) {
      oldest = std::max(oldest, batch.enqueued[i].elapsed_seconds());
    }
    first_batch_seconds_ = now_seconds - oldest;
  }
  last_batch_seconds_ = now_seconds;
  for (std::size_t i = 0; i < batch.count; ++i) {
    const double us = batch.enqueued[i].elapsed_seconds() * 1e6;
    if (latency_us_.size() < kLatencySamples) {
      latency_us_.push_back(us);
    } else {
      latency_us_[latency_next_] = us;
      latency_next_ = (latency_next_ + 1) % kLatencySamples;
    }
  }
}

double percentile(std::vector<double>& sample, double p) {
  if (sample.empty()) return 0.0;
  const double scaled = p * static_cast<double>(sample.size());
  const auto above = static_cast<std::size_t>(std::ceil(scaled));
  const std::size_t rank = std::min(sample.size() - 1, above - (above > 0));
  std::nth_element(sample.begin(),
                   sample.begin() + static_cast<std::ptrdiff_t>(rank),
                   sample.end());
  return sample[rank];
}

api::ServeEvidence ModelServer::stats() const {
  api::ServeEvidence out;
  out.swaps = swaps_.load(std::memory_order_relaxed);
  std::lock_guard lock(stats_mutex_);
  out.requests = requests_;
  out.batches = batches_;
  out.batch_occupancy =
      batches_ > 0
          ? static_cast<double>(requests_) / static_cast<double>(batches_)
          : 0.0;
  // Wall-clock of the active serving window: the first batch's earliest
  // submit to the last batch answered.
  const double span = last_batch_seconds_ - first_batch_seconds_;
  out.throughput_rps =
      span > 0.0 ? static_cast<double>(requests_) / span : 0.0;
  std::vector<double> sample = latency_us_;
  out.p50_latency_us = percentile(sample, 0.50);
  out.p99_latency_us = percentile(sample, 0.99);
  out.p999_latency_us = percentile(sample, 0.999);
  return out;
}

std::vector<double> ModelServer::latency_samples() const {
  std::lock_guard lock(stats_mutex_);
  return latency_us_;
}

void ModelServer::stop() {
  queue_->close();
  if (dispatcher_.joinable()) dispatcher_.join();
}

}  // namespace mcdc::serve
