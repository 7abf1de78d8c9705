#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>

namespace fleda {
namespace {

// Set while a pool thread is executing a parallel_for chunk so nested
// calls fall back to serial execution instead of deadlocking.
thread_local bool t_inside_parallel_region = false;

std::size_t env_thread_count() {
  // Pool size; results are bit-identical at any size.
  const char* env =
      std::getenv("FLEDA_THREADS");  // fleda-lint: allow(env-knob)
  if (env != nullptr) {
    long v = std::strtol(env, nullptr, 10);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  std::size_t hw = std::thread::hardware_concurrency();
  return hw == 0 ? 4 : hw;
}

}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads) {
  num_threads = std::max<std::size_t>(1, num_threads);
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
}

void ThreadPool::submit(std::function<void()> task) {
  {
    MutexLock lock(mutex_);
    tasks_.push(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mutex_);
      // Explicit wait loop (no predicate lambda): the guarded-member
      // reads stay inside this annotated scope, and cv_.wait's hidden
      // release/reacquire of mutex_ is the standard idiom the analysis
      // accepts — stop_/tasks_ are only ever read with the lock held.
      while (!stop_ && tasks_.empty()) cv_.wait(lock.native());
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

void ThreadPool::parallel_for(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& body,
    std::size_t grain) {
  if (n == 0) return;
  grain = std::max<std::size_t>(1, grain);
  std::size_t max_chunks = size() * 4;
  std::size_t chunks = std::min(max_chunks, (n + grain - 1) / grain);
  if (chunks <= 1 || t_inside_parallel_region) {
    body(0, n);
    return;
  }

  // Shared context: queued helper tasks may start only after this call
  // has already returned (work stolen by the caller), so everything
  // they touch must be owned by shared_ptr, not the caller's stack.
  struct Context {
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    std::size_t n = 0;
    std::size_t chunk_size = 0;
    const std::function<void(std::size_t, std::size_t)>* body = nullptr;
    // Guards nothing directly: the wait predicate is the atomic `done`
    // counter; the mutex exists only for the condition_variable
    // handshake (no lost-wakeup between the final fetch_add and wait).
    std::mutex done_mutex;  // fleda-lint: allow(mutex-guarded)
    std::condition_variable done_cv;
  };
  auto ctx = std::make_shared<Context>();
  ctx->n = n;
  ctx->chunk_size = (n + chunks - 1) / chunks;
  ctx->body = &body;  // only dereferenced while the caller is waiting

  auto run_chunks = [ctx] {
    bool prev = t_inside_parallel_region;
    t_inside_parallel_region = true;
    for (;;) {
      // Relaxed: `next` only allocates disjoint index ranges; the data
      // the body touches was published to the workers by the submit
      // mutex, and completion is published through `done` below.
      std::size_t begin =
          ctx->next.fetch_add(ctx->chunk_size, std::memory_order_relaxed);
      if (begin >= ctx->n) break;
      std::size_t end = std::min(ctx->n, begin + ctx->chunk_size);
      (*ctx->body)(begin, end);
      // Release: every write the body made happens-before the waiter's
      // acquire load observing done == n (RMWs keep the release
      // sequence intact across workers).
      std::size_t finished =
          ctx->done.fetch_add(end - begin, std::memory_order_release) +
          (end - begin);
      if (finished == ctx->n) {
        std::lock_guard<std::mutex> lock(ctx->done_mutex);
        ctx->done_cv.notify_all();
      }
    }
    t_inside_parallel_region = prev;
  };

  // Dispatch helpers to the pool, then participate from this thread so
  // callers always make progress even if all workers are busy.
  std::size_t helpers = std::min(chunks - 1, size());
  for (std::size_t i = 0; i < helpers; ++i) submit(run_chunks);
  run_chunks();

  std::unique_lock<std::mutex> lock(ctx->done_mutex);
  ctx->done_cv.wait(lock, [&] {
    return ctx->done.load(std::memory_order_acquire) == n;
  });
}

namespace {

// Global-pool slot: an atomic fast path for the steady state plus a
// mutex guarding (re)creation. unique_ptr rather than a function-local
// static so reset_global can join and rebuild the pool.
Mutex g_pool_mutex;
std::unique_ptr<ThreadPool> g_pool FLEDA_GUARDED_BY(g_pool_mutex);
std::atomic<ThreadPool*> g_pool_ptr{nullptr};

}  // namespace

ThreadPool& ThreadPool::global() {
  ThreadPool* pool = g_pool_ptr.load(std::memory_order_acquire);
  if (pool != nullptr) return *pool;
  MutexLock lock(g_pool_mutex);
  if (!g_pool) {
    g_pool = std::make_unique<ThreadPool>(env_thread_count());
    g_pool_ptr.store(g_pool.get(), std::memory_order_release);
  }
  return *g_pool;
}

void ThreadPool::reset_global(std::size_t num_threads) {
  MutexLock lock(g_pool_mutex);
  g_pool_ptr.store(nullptr, std::memory_order_release);
  g_pool.reset();  // joins the old workers
  g_pool = std::make_unique<ThreadPool>(
      num_threads > 0 ? num_threads : env_thread_count());
  g_pool_ptr.store(g_pool.get(), std::memory_order_release);
}

void parallel_for(std::size_t n,
                  const std::function<void(std::size_t, std::size_t)>& body,
                  std::size_t grain) {
  ThreadPool::global().parallel_for(n, body, grain);
}

}  // namespace fleda
