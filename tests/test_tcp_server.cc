// TcpServer: connection threads are reaped as connections finish, and a
// request line is bounded by kMaxRequestLineBytes.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <string>

#include "gen/labels.h"
#include "gen/random_graphs.h"
#include "serve/protocol.h"
#include "serve/query_service.h"
#include "serve/tcp_server.h"
#include "util/metrics_registry.h"

namespace ceci {
namespace {

// A blocking line client over one loopback connection.
class Client {
 public:
  explicit Client(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);  // lint: raw-socket test client
    // A server that never answers fails the test instead of hanging it.
    timeval timeout{};
    timeout.tv_sec = 10;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    connected_ =
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  }
  ~Client() { ::close(fd_); }

  bool connected() const { return connected_; }

  bool Send(const std::string& bytes) {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                         MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<std::size_t>(n);
    }
    return true;
  }

  // The next line without its LF; empty once the server has closed.
  std::string ReadLine() {
    std::size_t newline;
    while ((newline = pending_.find('\n')) == std::string::npos) {
      if (!Fill()) return "";
    }
    std::string line = pending_.substr(0, newline);
    pending_.erase(0, newline + 1);
    return line;
  }

  // True iff the server closes the connection with nothing further sent.
  bool AtEof() { return pending_.empty() && !Fill(); }

 private:
  bool Fill() {
    char chunk[4096];
    ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    pending_.append(chunk, static_cast<std::size_t>(n));
    return true;
  }

  int fd_ = -1;
  bool connected_ = false;
  std::string pending_;
};

class TcpServerTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kMaxConnections = 4;

  TcpServerTest()
      : data_(AssignRandomLabels(GenerateSocialGraph(200, 3, 5), 2, 5)),
        service_(data_, ServiceOptions{}),
        server_(service_, Options()) {}

  static TcpServerOptions Options() {
    TcpServerOptions options;
    options.max_connections = kMaxConnections;
    return options;
  }

  void SetUp() override { ASSERT_TRUE(server_.Start().ok()); }

  static std::int64_t ConnectionThreads() {
    return MetricsRegistry::Global()
        .GetGauge("ceci.serve.connection_threads")
        .Value();
  }

  Graph data_;
  QueryService service_;
  TcpServer server_;
};

TEST_F(TcpServerTest, SequentialConnectionsDoNotAccumulateThreads) {
  for (int i = 0; i < 500; ++i) {
    Client client(server_.port());
    ASSERT_TRUE(client.connected()) << "connection " << i;
    ASSERT_TRUE(client.Send("PING\n"));
    ASSERT_EQ(client.ReadLine(), "PONG") << "connection " << i;
    ASSERT_TRUE(client.Send("QUIT\n"));
    ASSERT_TRUE(client.AtEof()) << "connection " << i;
    ASSERT_LE(ConnectionThreads(),
              static_cast<std::int64_t>(kMaxConnections))
        << "after connection " << i;
  }
  server_.Stop();
  EXPECT_EQ(ConnectionThreads(), 0);
}

TEST_F(TcpServerTest, OverlongLineGetsErrAndIsClosed) {
  // A line of exactly the cap is parsed (and rejected as a request), and
  // the connection stays usable.
  Client ok(server_.port());
  ASSERT_TRUE(ok.connected());
  ASSERT_TRUE(ok.Send(std::string(kMaxRequestLineBytes, 'x') + "\n"));
  const std::string reply = ok.ReadLine();
  EXPECT_EQ(reply.rfind("ERR ", 0), 0u) << reply.substr(0, 80);
  EXPECT_EQ(reply.find("line_too_long"), std::string::npos);
  ASSERT_TRUE(ok.Send("PING\n"));
  EXPECT_EQ(ok.ReadLine(), "PONG");

  // One byte more with no line end is refused and the connection closed.
  Client over(server_.port());
  ASSERT_TRUE(over.connected());
  ASSERT_TRUE(over.Send(std::string(kMaxRequestLineBytes + 1, 'x')));
  EXPECT_EQ(over.ReadLine(), "ERR line_too_long");
  EXPECT_TRUE(over.AtEof());
}

}  // namespace
}  // namespace ceci
