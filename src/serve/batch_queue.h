// BatchQueue — coalesces single-row predict requests into batches.
//
// Producers (request handler threads) call submit() with one row each and
// block on the returned future; a single consumer (the ModelServer
// dispatcher) calls next_batch() in a loop, receiving up to max_batch
// requests at a time. Coalescing is what turns k*d-per-row pointer traffic
// into one frozen score_all sweep per batch (Model::predict_rows), and it
// amortises the queue synchronisation: producers pay one lock per request,
// the consumer pays one lock per *batch*.
//
// The queue stores a copy of every submitted row (producers must not keep
// the buffer alive) in one flat row-major staging bank drained through a
// head cursor, so a drain costs O(batch) regardless of backlog depth (the
// bank compacts when empty, or amortised once the dead prefix passes the
// backpressure bound).
//
// Backpressure: submit() blocks while kMaxPending requests are already
// queued — a bounded queue keeps a slow consumer from converting overload
// into unbounded memory growth. close() wakes everyone; a submit after
// close throws std::runtime_error, and next_batch() returns false once the
// queue is closed *and* drained (requests accepted before close are still
// served).
//
// Thread-safety: any number of producers; exactly one consumer.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <future>
#include <mutex>
#include <vector>

#include "common/timer.h"
#include "data/dataset.h"

namespace mcdc::serve {

class BatchQueue {
 public:
  // Bound on queued requests before submit() blocks.
  static constexpr std::size_t kMaxPending = 4096;
  // How long next_batch() lingers for a partial batch to fill once at
  // least one request is pending, in microseconds.
  static constexpr double kLingerUs = 50.0;
  // Rows per drained batch unless the caller asks for another size.
  static constexpr std::size_t kDefaultMaxBatch = 256;

  // row_width = values per row (the served model's feature count);
  // max_batch = rows per drained batch, where 1 degenerates to an
  // unbatched request loop, one sweep per request.
  explicit BatchQueue(std::size_t row_width,
                      std::size_t max_batch = kDefaultMaxBatch);

  BatchQueue(const BatchQueue&) = delete;
  BatchQueue& operator=(const BatchQueue&) = delete;

  std::size_t row_width() const { return row_width_; }

  // Copies row[0..row_width) into the staging bank and returns the future
  // label. Blocks while the queue is full; throws std::runtime_error when
  // the queue is closed.
  std::future<int> submit(const data::Value* row);

  // One drained batch: `count` rows packed row-major in `rows`, one
  // promise per row, and each request's submit-time clock for latency
  // accounting. Vectors are reused across drains (capacity stays warm).
  struct Batch {
    std::vector<data::Value> rows;
    std::vector<std::promise<int>> promises;
    std::vector<Timer> enqueued;
    std::size_t count = 0;
  };

  // Blocks until a request is pending, lingers up to kLingerUs for more,
  // then moves up to max_batch requests into `out`. Returns false when the
  // queue is closed and fully drained. Single consumer only.
  bool next_batch(Batch& out);

  // Rejects future submits and wakes the consumer to drain what remains.
  void close();

 private:
  std::size_t pending_locked() const;  // requires mutex_ held

  const std::size_t row_width_;
  const std::size_t max_batch_;

  std::mutex mutex_;
  std::condition_variable producer_cv_;  // space available
  std::condition_variable consumer_cv_;  // work available / closed
  std::vector<data::Value> rows_;        // staged rows, row-major
  std::vector<std::promise<int>> promises_;
  std::vector<Timer> enqueued_;
  std::size_t head_ = 0;  // first undrained request in the staging bank
  bool closed_ = false;
};

}  // namespace mcdc::serve
