// Load generation against the query server: a transport abstraction over
// a fixed set of request slots (connections), the open-loop and
// closed-loop runners that work on one thread over it, and the loopback
// TCP transport that speaks the server's line protocol.
#ifndef CECI_PERFBENCH_LOOPBACK_H_
#define CECI_PERFBENCH_LOOPBACK_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace perfbench {

/// A finished request as the client saw it.
struct Completion {
  std::size_t slot = 0;
  std::size_t request = 0;
  std::string response;
};

/// A set of slots, each carrying at most one request at a time.
class Transport {
 public:
  virtual ~Transport() = default;
  virtual std::size_t slots() const = 0;
  /// Starts `request` on the idle `slot`; false on failure.
  virtual bool Send(std::size_t slot, std::size_t request) = 0;
  /// Waits up to `timeout_s` for in-flight requests to finish and appends
  /// them to `done`; false on a transport failure.
  virtual bool Wait(double timeout_s, std::vector<Completion>* done) = 0;
};

/// Client-side timing of one request, in seconds from the run's start.
struct RequestTiming {
  double due_s = 0.0;    // when the schedule wanted it sent
  double ready_s = 0.0;  // when it was due and a slot was free
  double sent_s = 0.0;
  double done_s = 0.0;
  std::string response;

  /// Latency as a user sees it: from the due time, so time spent waiting
  /// behind a stalled request counts.
  double LatencySeconds() const { return done_s - due_s; }
  /// How late the generator itself was in sending.
  double LateSeconds() const { return sent_s - ready_s; }
};

/// Open loop: request i is due at i / rate_qps, whether or not earlier
/// requests have finished. A request due while every slot is busy waits
/// for the first free slot. Returns one timing per request, or an empty
/// vector on a transport failure.
std::vector<RequestTiming> RunOpenLoop(Transport& transport,
                                       std::size_t count, double rate_qps);

/// Closed loop: every slot sends its next request as soon as the previous
/// one returns, until `count` requests are done.
std::vector<RequestTiming> RunClosedLoop(Transport& transport,
                                         std::size_t count);

/// Line-protocol connections to a server on 127.0.0.1. Request i is sent
/// as `line(i)` plus a newline; its completion carries the response line.
class LoopbackTransport final : public Transport {
 public:
  LoopbackTransport(int port, std::size_t connections,
                    std::function<std::string(std::size_t)> line);
  ~LoopbackTransport() override;
  LoopbackTransport(const LoopbackTransport&) = delete;
  LoopbackTransport& operator=(const LoopbackTransport&) = delete;

  /// False when a connection could not be opened.
  bool ok() const { return ok_; }
  std::size_t slots() const override { return fds_.size(); }
  bool Send(std::size_t slot, std::size_t request) override;
  bool Wait(double timeout_s, std::vector<Completion>* done) override;

 private:
  std::function<std::string(std::size_t)> line_;
  std::vector<int> fds_;
  std::vector<std::string> buffers_;
  std::vector<std::size_t> in_flight_;  // request per slot, or npos
  bool ok_ = true;
};

}  // namespace perfbench

#endif  // CECI_PERFBENCH_LOOPBACK_H_
