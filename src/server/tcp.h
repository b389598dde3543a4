#ifndef DEDDB_SERVER_TCP_H_
#define DEDDB_SERVER_TCP_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "server/transport.h"

namespace deddb::server {

/// POSIX TCP realizations of the transport interfaces — what the
/// `deddb_server` and `deddb_replica` binaries listen on. The in-process
/// test suites and perfbench use the loopback transport instead,
/// so these stay thin wrappers over the sockets API with no protocol logic
/// of their own.

/// Listens on `port` (0 picks an ephemeral port; bound_port() reports it).
/// Binds 127.0.0.1 unless `any_interface` (the safe default for a database
/// speaking an unauthenticated protocol).
class TcpListener : public Listener {
 public:
  static Result<std::unique_ptr<TcpListener>> Listen(
      uint16_t port, bool any_interface = false);
  ~TcpListener() override;

  Result<std::unique_ptr<Connection>> Accept() override;
  void Close() override;

  uint16_t bound_port() const { return bound_port_; }

 private:
  TcpListener(int fd, uint16_t bound_port);

  int fd_;
  uint16_t bound_port_;
  std::atomic<bool> closed_{false};
};

/// Connects to `host:port` (numeric IPv4 host, e.g. "127.0.0.1").
Result<std::unique_ptr<Connection>> TcpConnect(const std::string& host,
                                               uint16_t port);

}  // namespace deddb::server

#endif  // DEDDB_SERVER_TCP_H_
