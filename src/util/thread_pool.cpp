#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <memory>
#include <utility>

#include "util/exec_context.h"

namespace bagdet {

ThreadPool::ThreadPool(std::size_t num_workers) {
  workers_.reserve(num_workers);
  for (std::size_t i = 0; i < num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  if (workers_.empty()) {
    task();
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    tasks_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // stop_ with a drained queue.
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    task();
  }
}

void ThreadPool::ParallelFor(std::size_t n,
                             const std::function<void(std::size_t)>& body,
                             std::size_t max_parallelism) {
  if (n == 0) return;
  std::size_t helpers = num_workers();
  if (max_parallelism != 0 && max_parallelism - 1 < helpers) {
    helpers = max_parallelism - 1;
  }
  if (n - 1 < helpers) helpers = n - 1;  // The caller claims work too.

  // Shared by the caller and every helper task. Helpers may outlive this
  // call (a busy pool can run them after the range is already drained);
  // the shared_ptr keeps the state alive and an exhausted `next` makes
  // such stragglers no-ops. Completion is "every claimed index finished",
  // counted in `done` — an exception still counts its index as done, so
  // the caller's wait below always terminates. After a first exception,
  // `abort` makes the remaining indices no-ops (still counted), so a
  // tripped ExecContext or any other failure unwinds without paying for
  // the rest of the range.
  struct State {
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    std::atomic<bool> abort{false};
    std::size_t n = 0;
    const std::function<void(std::size_t)>* body = nullptr;
    ExecContext* exec = nullptr;  // Caller's governed context, if any.
    std::mutex mu;
    std::condition_variable cv;
    std::exception_ptr error;  // Guarded by mu; first error wins.
  };
  auto state = std::make_shared<State>();
  state->n = n;
  state->body = &body;
  state->exec = CurrentExecContext();

  auto run = [](const std::shared_ptr<State>& s) {
    // Workers inherit the caller's ExecContext for the duration of this
    // range, so deadline/cancellation checkpoints and memory charges made
    // inside `body` land on the governing request from every lane. (On the
    // calling thread this reinstall is a no-op.)
    ExecScope exec_scope(s->exec);
    for (;;) {
      const std::size_t i = s->next.fetch_add(1, std::memory_order_relaxed);
      if (i >= s->n) return;
      if (!s->abort.load(std::memory_order_relaxed)) {
        try {
          (*s->body)(i);
        } catch (...) {
          {
            std::lock_guard<std::mutex> lock(s->mu);
            if (!s->error) s->error = std::current_exception();
          }
          s->abort.store(true, std::memory_order_relaxed);
        }
      }
      if (s->done.fetch_add(1, std::memory_order_acq_rel) + 1 == s->n) {
        std::lock_guard<std::mutex> lock(s->mu);
        s->cv.notify_all();
      }
    }
  };

  for (std::size_t h = 0; h < helpers; ++h) {
    Submit([state, run] { run(state); });
  }
  run(state);
  std::unique_lock<std::mutex> lock(state->mu);
  state->cv.wait(lock, [&] {
    return state->done.load(std::memory_order_acquire) == n;
  });
  // Take the error out of the shared state so the exception object is
  // freed on this thread, after its handler. A helper task can hold the
  // last reference to `state`; had it freed the exception, the ordering
  // would rest on the C++ runtime's uninstrumented reference count, which
  // ThreadSanitizer cannot see, and it would report a race.
  std::exception_ptr error = std::exchange(state->error, nullptr);
  lock.unlock();
  if (error) std::rethrow_exception(error);
}

std::size_t DefaultThreadCount() {
  // BAGDET_NUM_THREADS when it is a positive integer, capped at
  // kMaxThreadCount so a typo'd or overflowing value cannot start
  // millions of OS threads; else the hardware width.
  if (const char* env = std::getenv("BAGDET_NUM_THREADS")) {
    char* end = nullptr;
    const long value = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && value > 0) {
      return std::min(static_cast<std::size_t>(value), kMaxThreadCount);
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

namespace {
std::mutex g_pool_mu;
std::unique_ptr<ThreadPool> g_pool;        // Guarded by g_pool_mu.
std::size_t g_pool_parallelism = 0;        // 0 = DefaultThreadCount().
}  // namespace

ThreadPool& GlobalThreadPool() {
  std::lock_guard<std::mutex> lock(g_pool_mu);
  if (g_pool == nullptr) {
    const std::size_t parallelism =
        g_pool_parallelism != 0 ? g_pool_parallelism : DefaultThreadCount();
    g_pool = std::make_unique<ThreadPool>(parallelism - 1);
  }
  return *g_pool;
}

void SetGlobalThreadPoolSize(std::size_t parallelism) {
  std::lock_guard<std::mutex> lock(g_pool_mu);
  g_pool_parallelism = parallelism;
  g_pool.reset();  // Joined here; rebuilt lazily on next GlobalThreadPool().
}

}  // namespace bagdet
