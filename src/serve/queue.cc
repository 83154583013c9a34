#include "serve/queue.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"
#include "util/rng.h"

namespace tsi {

RequestQueue::RequestQueue(std::vector<ServeRequest> requests) {
  std::stable_sort(requests.begin(), requests.end(),
                   [](const ServeRequest& a, const ServeRequest& b) {
                     return a.arrival != b.arrival ? a.arrival < b.arrival
                                                   : a.id < b.id;
                   });
  for (auto& r : requests) {
    TSI_CHECK(!r.prompt.empty()) << "request " << r.id << " has an empty prompt";
    TSI_CHECK_GT(r.max_new_tokens, 0);
    pending_.push_back(std::move(r));
  }
  for (size_t i = 1; i < pending_.size(); ++i)
    TSI_CHECK(pending_[i - 1].id != pending_[i].id)
        << "duplicate request id " << pending_[i].id;
}

bool RequestQueue::HasArrived(double now) const {
  return !pending_.empty() && pending_.front().arrival <= now;
}

ServeRequest RequestQueue::Pop() {
  TSI_CHECK(!pending_.empty());
  ServeRequest r = std::move(pending_.front());
  pending_.pop_front();
  return r;
}

double RequestQueue::NextArrival() const {
  TSI_CHECK(!pending_.empty());
  return pending_.front().arrival;
}

std::vector<double> PoissonArrivals(double rate, int64_t count, uint64_t seed) {
  TSI_CHECK_GT(rate, 0);
  Rng rng(seed);
  std::vector<double> arrivals;
  arrivals.reserve(static_cast<size_t>(count));
  double t = 0;
  for (int64_t i = 0; i < count; ++i) {
    // Exponential inter-arrival gaps.
    t += -std::log(1.0 - rng.NextDouble()) / rate;
    arrivals.push_back(t);
  }
  return arrivals;
}

std::vector<ServeRequest> PoissonRequests(double rate, int64_t count,
                                          int64_t prompt_len,
                                          int64_t max_new_tokens, int64_t vocab,
                                          uint64_t seed) {
  TSI_CHECK_GT(prompt_len, 0);
  TSI_CHECK_GT(vocab, 0);
  std::vector<double> arrivals = PoissonArrivals(rate, count, seed);
  Rng rng(Rng::DeriveSeed(seed, 0x70726f6d));  // prompt stream
  std::vector<ServeRequest> requests(static_cast<size_t>(count));
  for (int64_t i = 0; i < count; ++i) {
    ServeRequest& r = requests[static_cast<size_t>(i)];
    r.id = i;
    r.arrival = arrivals[static_cast<size_t>(i)];
    r.max_new_tokens = max_new_tokens;
    r.prompt.resize(static_cast<size_t>(prompt_len));
    for (auto& t : r.prompt)
      t = static_cast<int32_t>(rng.NextBelow(static_cast<uint64_t>(vocab)));
  }
  return requests;
}

}  // namespace tsi
