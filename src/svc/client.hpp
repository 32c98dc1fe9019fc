// Synchronous client for the compaction service (docs/service.md).
//
// One connection, one outstanding request at a time — the shape the
// load generator, the tests, and the CLI need.  Errors surface as
// WireError (transport) or JsonError (malformed server reply); both
// close the connection, after which connect() may be called again.
#pragma once

#include <string>

#include "svc/job.hpp"
#include "svc/json.hpp"

namespace scanc::svc {

class Client {
 public:
  Client() = default;
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Connects, retrying while the daemon socket is not up yet (startup
  /// races) until `timeout_seconds` elapses.  Throws WireError.
  void connect(const std::string& socket_path, double timeout_seconds = 5.0);

  [[nodiscard]] bool connected() const noexcept { return fd_ >= 0; }
  void close() noexcept;

  /// The raw file descriptor (hostile-client tests write garbage here).
  [[nodiscard]] int fd() const noexcept { return fd_; }

  /// Sends one request frame and reads one response frame.
  Json request(const Json& req, double timeout_seconds = 30.0);

  /// op:"submit" with a validated spec.
  Json submit(const JobSpec& spec, double timeout_seconds = 30.0);
  /// op:"submit" with an arbitrary spec value (malformed-spec tests).
  Json submit_raw(Json spec, double timeout_seconds = 30.0);
  Json status(const std::string& id, double timeout_seconds = 30.0);
  /// Blocks server-side until the job is terminal (or `wait_seconds`).
  Json wait(const std::string& id, double wait_seconds = 60.0);
  Json stats(double timeout_seconds = 30.0);
  [[nodiscard]] bool ping();
  void shutdown_server();

 private:
  int fd_ = -1;
};

}  // namespace scanc::svc
