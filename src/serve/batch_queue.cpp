#include "serve/batch_queue.h"

#include <chrono>
#include <stdexcept>
#include <utility>

namespace mcdc::serve {

BatchQueue::BatchQueue(std::size_t row_width, std::size_t max_batch)
    : row_width_(row_width), max_batch_(max_batch) {
  if (row_width_ == 0) {
    throw std::invalid_argument("BatchQueue: row_width must be > 0");
  }
  if (max_batch_ == 0) {
    throw std::invalid_argument("BatchQueue: max_batch must be > 0");
  }
}

std::size_t BatchQueue::pending_locked() const {
  return promises_.size() - head_;
}

std::future<int> BatchQueue::submit(const data::Value* row) {
  std::unique_lock lock(mutex_);
  producer_cv_.wait(lock, [this] {
    return closed_ || pending_locked() < kMaxPending;
  });
  if (closed_) throw std::runtime_error("BatchQueue: submit after close");
  rows_.insert(rows_.end(), row, row + row_width_);
  promises_.emplace_back();
  enqueued_.emplace_back();
  std::future<int> result = promises_.back().get_future();
  lock.unlock();
  consumer_cv_.notify_one();
  return result;
}

bool BatchQueue::next_batch(Batch& out) {
  std::unique_lock lock(mutex_);
  consumer_cv_.wait(lock, [this] { return closed_ || pending_locked() > 0; });
  if (pending_locked() == 0) return false;  // closed and drained

  // Linger for the batch to fill: overall latency is dominated by the
  // sweep, so trading a bounded wait for higher occupancy is usually a
  // win. A closed queue and a full batch both cut the wait short.
  if (!closed_ && pending_locked() < max_batch_) {
    // mcdc-lint: allow(D1) linger deadline shapes batch occupancy/latency
    // only; every row's label is computed by the same frozen sweep
    // whichever batch it lands in.
    const auto linger = std::chrono::duration_cast<
        std::chrono::steady_clock::duration>(
        std::chrono::duration<double, std::micro>(kLingerUs));
    consumer_cv_.wait_for(lock, linger, [this] {
      return closed_ || pending_locked() >= max_batch_;
    });
    if (pending_locked() == 0) return false;
  }

  // Drain from the head cursor — O(batch), however deep the backlog. The
  // buffers compact when fully drained (the common case) or once the dead
  // prefix exceeds the backpressure bound (amortised O(1) per request),
  // so the staging bank cannot grow without bound under sustained load.
  const std::size_t take = std::min(pending_locked(), max_batch_);
  const auto head = static_cast<std::ptrdiff_t>(head_);
  const auto tail = static_cast<std::ptrdiff_t>(head_ + take);
  out.count = take;
  out.rows.assign(rows_.begin() + head * static_cast<std::ptrdiff_t>(row_width_),
                  rows_.begin() + tail * static_cast<std::ptrdiff_t>(row_width_));
  out.promises.assign(std::make_move_iterator(promises_.begin() + head),
                      std::make_move_iterator(promises_.begin() + tail));
  out.enqueued.assign(enqueued_.begin() + head, enqueued_.begin() + tail);
  head_ += take;
  if (head_ == promises_.size()) {
    rows_.clear();
    promises_.clear();
    enqueued_.clear();
    head_ = 0;
  } else if (head_ >= kMaxPending) {
    rows_.erase(rows_.begin(), rows_.begin() + static_cast<std::ptrdiff_t>(
                                                   head_ * row_width_));
    promises_.erase(promises_.begin(),
                    promises_.begin() + static_cast<std::ptrdiff_t>(head_));
    enqueued_.erase(enqueued_.begin(),
                    enqueued_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
  lock.unlock();
  producer_cv_.notify_all();
  return true;
}

void BatchQueue::close() {
  {
    std::lock_guard lock(mutex_);
    closed_ = true;
  }
  producer_cv_.notify_all();
  consumer_cv_.notify_all();
}

}  // namespace mcdc::serve
