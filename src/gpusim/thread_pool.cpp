#include "gpusim/thread_pool.hpp"

#include <algorithm>
#include <cstdlib>

namespace mcmm::gpusim {
namespace {

inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#else
  std::this_thread::yield();
#endif
}

// Brief spins before parking. Kept small: the host may be oversubscribed
// (the simulator runs more workers than cores on small machines), where
// long spins only steal cycles from the thread being waited on.
constexpr int kSpinIters = 64;

}  // namespace

/// One in-flight fork-join batch, living on the submitter's stack.
struct ThreadPool::Batch {
  ChunkFn fn{};
  void* ctx{};
  std::uint64_t n{};
  std::uint64_t chunk_count{};
  std::uint64_t base{};  ///< static: floor chunk size; dynamic: grain
  std::uint64_t rem{};   ///< static: first `rem` chunks get one extra index
  Schedule schedule{Schedule::Static};
  std::atomic<std::uint64_t> next{0};       ///< chunk ticket dispenser
  std::atomic<std::uint64_t> remaining{0};  ///< chunks not yet finished
  std::atomic<bool> has_error{false};
  std::exception_ptr error;  ///< written by the has_error winner only

  /// Bounds of chunk `c`. Static chunks tile [0, n) exactly: the first
  /// `rem` chunks carry one extra index, so no chunk is ever empty.
  void bounds(std::uint64_t c, std::uint64_t& begin,
              std::uint64_t& end) const noexcept {
    if (schedule == Schedule::Static) {
      begin = c * base + std::min(c, rem);
      end = begin + base + (c < rem ? 1 : 0);
    } else {
      begin = c * base;
      end = std::min(n, begin + base);
    }
  }
};

ThreadPool::ThreadPool(unsigned workers) {
  if (workers == 0) {
    workers = std::max(2u, std::thread::hardware_concurrency());
  }
  threads_.reserve(workers);
  for (unsigned i = 0; i < workers; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  stop_.store(true, std::memory_order_release);
  epoch_.fetch_add(1, std::memory_order_release);
  epoch_.notify_all();
  for (std::thread& t : threads_) t.join();
}

bool ThreadPool::execute(Batch& batch) {
  bool did_work = false;
  for (;;) {
    const std::uint64_t c = batch.next.fetch_add(1, std::memory_order_relaxed);
    if (c >= batch.chunk_count) return did_work;
    did_work = true;
    std::uint64_t begin = 0;
    std::uint64_t end = 0;
    batch.bounds(c, begin, end);
    try {
      batch.fn(batch.ctx, begin, end);
    } catch (...) {
      if (!batch.has_error.exchange(true, std::memory_order_acq_rel)) {
        batch.error = std::current_exception();
      }
    }
    // The final decrement releases every chunk's effects (including the
    // error slot) to the submitter's acquire load of remaining == 0.
    if (batch.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      batch.remaining.notify_all();
    }
  }
}

bool ThreadPool::try_execute_from(Slot& slot) {
  if (slot.batch.load(std::memory_order_acquire) == nullptr) return false;
  // Pin the slot before re-reading the pointer: the submitter retires the
  // descriptor only once `readers` drops to zero, so a non-null pointer
  // observed under the pin stays valid until we unpin. seq_cst: this
  // pin/re-read pairs with the retire in run_batch_parallel (Dekker).
  slot.readers.fetch_add(1, std::memory_order_seq_cst);
  Batch* batch = slot.batch.load(std::memory_order_seq_cst);
  bool did_work = false;
  if (batch != nullptr) did_work = execute(*batch);
  slot.readers.fetch_sub(1, std::memory_order_release);
  return did_work;
}

void ThreadPool::worker_loop() {
  for (;;) {
    // Load the epoch before scanning: work published after the scan bumps
    // the epoch, so the wait below returns immediately (no lost wake-up).
    const std::uint64_t seen = epoch_.load(std::memory_order_acquire);
    if (stop_.load(std::memory_order_acquire)) return;
    bool did_work = false;
    for (Slot& slot : slots_) did_work |= try_execute_from(slot);
    if (did_work) continue;
    bool bumped = false;
    for (int i = 0; i < kSpinIters; ++i) {
      if (epoch_.load(std::memory_order_acquire) != seen) {
        bumped = true;
        break;
      }
      cpu_relax();
    }
    if (!bumped) epoch_.wait(seen, std::memory_order_acquire);
  }
}

ThreadPool::Slot* ThreadPool::claim_slot(Batch* batch) {
  for (Slot& slot : slots_) {
    Batch* expected = nullptr;
    if (slot.batch.load(std::memory_order_relaxed) == nullptr &&
        slot.batch.compare_exchange_strong(expected, batch,
                                           std::memory_order_release,
                                           std::memory_order_relaxed)) {
      return &slot;
    }
  }
  return nullptr;
}

void ThreadPool::run_batch_parallel(std::uint64_t n, ChunkFn fn, void* ctx,
                                    Schedule schedule, std::uint64_t grain) {
  const std::uint64_t participants = worker_count() + 1;  // workers + caller

  Batch batch;
  batch.fn = fn;
  batch.ctx = ctx;
  batch.n = n;
  batch.schedule = schedule;
  if (schedule == Schedule::Static) {
    const std::uint64_t parts = std::min<std::uint64_t>(n, participants);
    batch.chunk_count = parts;
    batch.base = n / parts;
    batch.rem = n % parts;
  } else {
    if (grain == 0) {
      // Default grain: ~8 grabs per participant, clamped so tiny batches
      // still self-balance and huge ones keep the ticket traffic low.
      grain = std::max<std::uint64_t>(1, n / (participants * 8));
    }
    batch.base = grain;
    batch.chunk_count = (n + grain - 1) / grain;
  }
  batch.remaining.store(batch.chunk_count, std::memory_order_relaxed);

  // Single-chunk batches run inline on the caller: no publication, no
  // wake-up, and exceptions propagate directly.
  if (batch.chunk_count == 1) {
    fn(ctx, 0, n);
    return;
  }

  Slot* slot = claim_slot(&batch);
  if (slot == nullptr) {
    // More concurrent submissions than slots (pathological): degrade to a
    // serial inline run rather than blocking — still correct, never stuck.
    fn(ctx, 0, n);
    return;
  }
  epoch_.fetch_add(1, std::memory_order_release);
  epoch_.notify_all();

  // The submitter works too: on the common path every chunk is consumed
  // here or by an already-spinning worker without any syscall.
  execute(batch);

  for (int i = 0;
       i < kSpinIters && batch.remaining.load(std::memory_order_acquire) != 0;
       ++i) {
    cpu_relax();
  }
  for (std::uint64_t r;
       (r = batch.remaining.load(std::memory_order_acquire)) != 0;) {
    batch.remaining.wait(r, std::memory_order_acquire);
  }

  // Retire the slot, then wait out any worker still pinning the pointer
  // (a bounded window: pinned workers only grab empty tickets by now).
  // This store->load pair and the worker's pin->re-read pair in
  // try_execute_from form a Dekker pattern, so all four are seq_cst: in
  // the single total order either our load sees the pin (and we wait), or
  // the pin comes after our store and the worker re-reads nullptr (or a
  // later batch). With release/acquire both loads could see the old
  // values, and the worker would run this stack descriptor after it died.
  slot->batch.store(nullptr, std::memory_order_seq_cst);
  while (slot->readers.load(std::memory_order_seq_cst) != 0) cpu_relax();

  if (batch.has_error.load(std::memory_order_acquire)) {
    std::rethrow_exception(batch.error);
  }
}

ThreadPool& ThreadPool::global() {
  // MCMM_NUM_THREADS pins the worker count (the OMP_NUM_THREADS idiom).
  // The determinism battery runs the same workload at 1, 4, and
  // hardware_concurrency workers and asserts bit-identical simulated time;
  // out-of-range values fall back to the hardware default.
  static ThreadPool pool([] {
    if (const char* env = std::getenv("MCMM_NUM_THREADS")) {
      const long v = std::strtol(env, nullptr, 10);
      if (v > 0 && v <= 4096) return static_cast<unsigned>(v);
    }
    return 0u;
  }());
  return pool;
}

}  // namespace mcmm::gpusim
