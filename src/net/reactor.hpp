// epoll reactor: readiness dispatch used by the HTTP server's accept/IO
// loop and by the asynchronous benchmark client.
//
// The callback table and task queue are mutex-guarded so other threads
// may add/remove fds and post() work (the HTTP worker pool posts each
// computed response back to the reactor thread, which writes it).
// Callbacks themselves always run on the thread calling poll()/run().
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "net/socket.hpp"
#include "util/sync.hpp"

namespace clarens::net {

class Reactor {
 public:
  enum Interest : std::uint32_t {
    kRead = 1,
    kWrite = 2,
  };

  /// Callback receives the ready interest mask.
  using Callback = std::function<void(std::uint32_t ready)>;

  Reactor();
  ~Reactor();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  void add(int fd, std::uint32_t interest, Callback callback);
  void modify(int fd, std::uint32_t interest);
  void remove(int fd);
  bool watching(int fd) const;

  /// Enqueue a task to run on the polling thread after the current (or
  /// next) dispatch round. Thread-safe; wakes a blocked poll().
  void post(std::function<void()> task);

  /// Dispatch ready events and posted tasks; waits at most `timeout_ms`
  /// (-1 = forever). Returns number of fd events handled.
  int poll(int timeout_ms);

  /// Run poll() until stop() is called.
  void run();
  void stop();

  std::size_t watched() const;

  /// Number of poll() rounds completed so far. Only meaningful on the
  /// polling thread (unsynchronized): callbacks use it to detect "same
  /// epoll tick" for per-tick budgets (e.g. the HTTP server's inline
  /// dispatch budget).
  std::uint64_t ticks() const { return ticks_; }

 private:
  void wake();

  Fd epoll_fd_;
  Fd wake_fd_;  // eventfd to interrupt run()
  // Guards callbacks_ and tasks_; add/remove/post may race with poll()
  // on another thread. Never held while a callback or task executes.
  mutable util::Mutex mutex_{util::LockLevel::kNetReactorTasks};
  std::map<int, Callback> callbacks_ CLARENS_GUARDED_BY(mutex_);
  std::vector<std::function<void()>> tasks_ CLARENS_GUARDED_BY(mutex_);
  // stop() may be called from another thread while run() polls.
  std::atomic<bool> stopping_{false};
  // Polling-thread only; see ticks().
  std::uint64_t ticks_ = 0;
};

}  // namespace clarens::net
