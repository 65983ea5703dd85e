#include "core/divide.h"

#include <algorithm>
#include <atomic>
#include <stdexcept>

#include "thread/thread_pool.h"

namespace fastbfs {
namespace {

std::atomic<std::uint64_t> g_invocations{0};

/// Maps a bin-local item range [lo, hi) onto per-source slices (sources
/// are concatenated in id order within the bin) and appends them to `out`.
void emit_slices(std::span<const std::uint32_t> counts, unsigned n_bins,
                 unsigned n_src, unsigned bin, std::uint64_t lo,
                 std::uint64_t hi, std::vector<BinSlice>& out) {
  std::uint64_t pre = 0;  // items of earlier sources in this bin
  for (unsigned src = 0; src < n_src && pre < hi; ++src) {
    const std::uint32_t c = counts[static_cast<std::size_t>(src) * n_bins + bin];
    const std::uint64_t s_lo = std::max<std::uint64_t>(lo, pre);
    const std::uint64_t s_hi = std::min<std::uint64_t>(hi, pre + c);
    if (s_lo < s_hi) {
      out.push_back({src, bin, static_cast<std::uint32_t>(s_lo - pre),
                     static_cast<std::uint32_t>(s_hi - pre)});
    }
    pre += c;
  }
}

/// Total items all sources produced into `bin`. Computed on demand so the
/// division needs no per-bin totals vector — the reuse path stays
/// allocation-free; overall cost is still one pass over `counts`.
std::uint64_t bin_total(std::span<const std::uint32_t> counts,
                        unsigned n_bins, unsigned n_src, unsigned bin) {
  std::uint64_t t = 0;
  for (unsigned src = 0; src < n_src; ++src) {
    t += counts[static_cast<std::size_t>(src) * n_bins + bin];
  }
  return t;
}

}  // namespace

std::uint64_t divide_bins_invocations() {
  return g_invocations.load(std::memory_order_relaxed);
}

double DivisionPlan::socket_imbalance() const {
  if (total_items == 0 || per_socket_items.empty()) return 1.0;
  const double even = static_cast<double>(total_items) /
                      static_cast<double>(per_socket_items.size());
  const std::uint64_t worst =
      *std::max_element(per_socket_items.begin(), per_socket_items.end());
  return static_cast<double>(worst) / even;
}

void DivisionPlan::clear(unsigned n_threads, unsigned n_sockets) {
  per_thread.resize(n_threads);
  for (auto& slices : per_thread) slices.clear();
  per_socket_items.assign(n_sockets, 0);
  total_items = 0;
}

void DivisionPlan::reserve_shape(unsigned n_threads, unsigned n_sockets,
                                 unsigned n_src, unsigned n_bins) {
  clear(n_threads, n_sockets);
  // Deterministic slice capacity. Every scheme hands each thread at most
  // one contiguous range per bin, and emit_slices cuts a range into at
  // most one slice per source, so a thread can never hold more than
  // n_src * n_bins slices. Reserving that bound once per shape makes every
  // later refill allocation-free no matter how the race-dependent counts
  // redistribute items between threads — a fluctuating per-thread slice
  // count must otherwise eventually push_back past a warm capacity.
  const std::size_t max_slices = static_cast<std::size_t>(n_src) * n_bins;
  for (auto& slices : per_thread) {
    if (slices.capacity() < max_slices) slices.reserve(max_slices);
  }
}

void divide_bins_into(std::span<const std::uint32_t> counts, unsigned n_src,
                      unsigned n_bins, const SocketTopology& topo,
                      SocketScheme scheme, DivisionPlan& plan) {
  if (counts.size() != static_cast<std::size_t>(n_src) * n_bins) {
    throw std::invalid_argument("divide_bins: counts shape mismatch");
  }
  g_invocations.fetch_add(1, std::memory_order_relaxed);
  const unsigned n_threads = topo.n_threads();
  const unsigned n_sockets = topo.n_sockets();

  plan.reserve_shape(n_threads, n_sockets, n_src, n_bins);

  std::uint64_t total = 0;
  for (const auto c : counts) total += c;
  plan.total_items = total;
  if (total == 0) return;

  if (scheme == SocketScheme::kNone) {
    // Cut the bin-major sequence into n_threads equal ranges; no
    // socket-affinity, no per-bin splitting.
    std::uint64_t prefix = 0;
    for (unsigned b = 0; b < n_bins; ++b) {
      const std::uint64_t bin_lo = prefix;
      const std::uint64_t bin_hi = prefix + bin_total(counts, n_bins, n_src, b);
      for (unsigned w = 0; w < n_threads; ++w) {
        const std::uint64_t c_lo = total * w / n_threads;
        const std::uint64_t c_hi = total * (w + 1) / n_threads;
        const std::uint64_t lo = std::max(bin_lo, c_lo);
        const std::uint64_t hi = std::min(bin_hi, c_hi);
        if (lo < hi) {
          emit_slices(counts, n_bins, n_src, b, lo - bin_lo, hi - bin_lo,
                      plan.per_thread[w]);
          plan.per_socket_items[topo.socket_of_thread(w)] += hi - lo;
        }
      }
      prefix = bin_hi;
    }
    return;
  }

  if (scheme == SocketScheme::kSocketAware && n_bins % n_sockets != 0) {
    throw std::invalid_argument(
        "divide_bins: socket-aware scheme needs n_bins % n_sockets == 0");
  }
  const unsigned bins_per_socket = n_bins / n_sockets;

  std::uint64_t prefix = 0;
  for (unsigned b = 0; b < n_bins; ++b) {
    const std::uint64_t bt = bin_total(counts, n_bins, n_src, b);
    for (unsigned s = 0; s < n_sockets; ++s) {
      // The portion of bin b owned by socket s, in bin-local item offsets.
      std::uint64_t lo = 0, hi = 0;
      if (scheme == SocketScheme::kSocketAware) {
        if (b / bins_per_socket == s) {
          lo = 0;
          hi = bt;
        }
      } else {  // kLoadBalanced: even cut of the global sequence
        const std::uint64_t c_lo = total * s / n_sockets;
        const std::uint64_t c_hi = total * (s + 1) / n_sockets;
        lo = std::max(prefix, c_lo);
        hi = std::min(prefix + bt, c_hi);
        if (lo >= hi) continue;
        lo -= prefix;
        hi -= prefix;
      }
      if (lo >= hi) continue;
      plan.per_socket_items[s] += hi - lo;
      // Split this socket's portion of the bin evenly among its threads so
      // they all stay inside one VIS partition at a time.
      const unsigned k = topo.threads_on_socket(s);
      const unsigned first = topo.first_thread_of_socket(s);
      for (unsigned r = 0; r < k; ++r) {
        const Range part = split_range(static_cast<std::size_t>(hi - lo), k, r);
        if (part.size() == 0) continue;
        emit_slices(counts, n_bins, n_src, b, lo + part.begin, lo + part.end,
                    plan.per_thread[first + r]);
      }
    }
    prefix += bt;
  }
}

DivisionPlan divide_bins(std::span<const std::uint32_t> counts,
                         unsigned n_src, unsigned n_bins,
                         const SocketTopology& topo, SocketScheme scheme) {
  DivisionPlan plan;
  divide_bins_into(counts, n_src, n_bins, topo, scheme, plan);
  return plan;
}

}  // namespace fastbfs
