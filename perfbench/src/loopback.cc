#include "loopback.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <ctime>

#include "report.h"

namespace perfbench {
namespace {

constexpr std::size_t kIdle = static_cast<std::size_t>(-1);

// Shared runner: `due(i)` is request i's due time, or a negative value for
// "as soon as a slot frees up" (closed loop).
template <typename DueFn>
std::vector<RequestTiming> Drive(Transport& transport, std::size_t count,
                                 DueFn due) {
  std::vector<RequestTiming> timings(count);
  const std::size_t slots = transport.slots();
  std::vector<std::size_t> free_slots;
  for (std::size_t s = slots; s-- > 0;) free_slots.push_back(s);
  std::vector<double> slot_free_at(slots, 0.0);
  const Clock::time_point start = Clock::now();
  const auto now = [&] { return SecondsBetween(start, Clock::now()); };
  std::size_t next = 0;
  std::size_t completed = 0;
  std::vector<Completion> done;
  while (completed < count) {
    while (next < count && !free_slots.empty()) {
      const double t = now();
      const double due_s = due(next);
      if (due_s > t) break;
      const std::size_t slot = free_slots.back();
      free_slots.pop_back();
      RequestTiming& r = timings[next];
      r.due_s = due_s < 0.0 ? t : due_s;
      r.ready_s = std::max(r.due_s, slot_free_at[slot]);
      r.sent_s = now();
      if (!transport.Send(slot, next)) return {};
      ++next;
    }
    double timeout = 1.0;
    if (next < count && !free_slots.empty()) {
      timeout = std::max(0.0, due(next) - now());
    }
    done.clear();
    if (!transport.Wait(timeout, &done)) return {};
    const double t = now();
    for (Completion& c : done) {
      RequestTiming& r = timings[c.request];
      r.done_s = t;
      r.response = std::move(c.response);
      free_slots.push_back(c.slot);
      slot_free_at[c.slot] = t;
      ++completed;
    }
  }
  return timings;
}

}  // namespace

std::vector<RequestTiming> RunOpenLoop(Transport& transport,
                                       std::size_t count, double rate_qps) {
  return Drive(transport, count, [rate_qps](std::size_t i) {
    return static_cast<double>(i) / rate_qps;
  });
}

std::vector<RequestTiming> RunClosedLoop(Transport& transport,
                                         std::size_t count) {
  return Drive(transport, count, [](std::size_t) { return -1.0; });
}

LoopbackTransport::LoopbackTransport(
    int port, std::size_t connections,
    std::function<std::string(std::size_t)> line)
    : line_(std::move(line)) {
  for (std::size_t i = 0; i < connections; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
      ok_ = false;
      return;
    }
    fds_.push_back(fd);
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ok_ = false;
      return;
    }
  }
  buffers_.resize(fds_.size());
  in_flight_.assign(fds_.size(), kIdle);
}

LoopbackTransport::~LoopbackTransport() {
  for (int fd : fds_) ::close(fd);
}

bool LoopbackTransport::Send(std::size_t slot, std::size_t request) {
  const std::string data = line_(request) + "\n";
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fds_[slot], data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  in_flight_[slot] = request;
  return true;
}

bool LoopbackTransport::Wait(double timeout_s, std::vector<Completion>* done) {
  std::vector<pollfd> polled;
  std::vector<std::size_t> slot_of;
  for (std::size_t s = 0; s < fds_.size(); ++s) {
    if (in_flight_[s] == kIdle) continue;
    polled.push_back(pollfd{fds_[s], POLLIN, 0});
    slot_of.push_back(s);
  }
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(timeout_s);
  ts.tv_nsec = static_cast<long>((timeout_s - std::floor(timeout_s)) * 1e9);
  const int ready = ::ppoll(polled.data(), polled.size(), &ts, nullptr);
  if (ready < 0) return errno == EINTR;
  char chunk[4096];
  for (std::size_t i = 0; i < polled.size(); ++i) {
    if (polled[i].revents == 0) continue;
    const std::size_t s = slot_of[i];
    const ssize_t n = ::recv(fds_[s], chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    buffers_[s].append(chunk, static_cast<std::size_t>(n));
    const auto newline = buffers_[s].find('\n');
    if (newline == std::string::npos) continue;
    done->push_back(Completion{s, in_flight_[s], buffers_[s].substr(0, newline)});
    buffers_[s].erase(0, newline + 1);
    in_flight_[s] = kIdle;
  }
  return true;
}

}  // namespace perfbench
