#include "svc/client.hpp"

#include <unistd.h>

#include "svc/wire.hpp"

namespace scanc::svc {

Client::~Client() { close(); }

void Client::connect(const std::string& socket_path, double timeout_seconds) {
  close();
  fd_ = connect_unix(socket_path, util::Deadline::after(timeout_seconds));
}

void Client::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Json Client::request(const Json& req, double timeout_seconds) {
  if (fd_ < 0) throw WireError(WireError::Kind::Io, "not connected");
  const util::Deadline deadline = util::Deadline::after(timeout_seconds);
  try {
    write_frame(fd_, req.dump(), deadline);
    std::string payload;
    if (!read_frame(fd_, payload, deadline)) {
      throw WireError(WireError::Kind::Eof, "server closed the connection");
    }
    return Json::parse(payload, 32, kMaxFrameBytes);
  } catch (...) {
    close();  // frame boundary unknown; the connection is unusable
    throw;
  }
}

Json Client::submit(const JobSpec& spec, double timeout_seconds) {
  return submit_raw(job_spec_json(spec), timeout_seconds);
}

Json Client::submit_raw(Json spec, double timeout_seconds) {
  Json req = Json::object();
  req.set("op", Json::string("submit"));
  req.set("spec", std::move(spec));
  return request(req, timeout_seconds);
}

Json Client::status(const std::string& id, double timeout_seconds) {
  Json req = Json::object();
  req.set("op", Json::string("status"));
  req.set("id", Json::string(id));
  return request(req, timeout_seconds);
}

Json Client::wait(const std::string& id, double wait_seconds) {
  Json req = Json::object();
  req.set("op", Json::string("wait"));
  req.set("id", Json::string(id));
  req.set("timeout_seconds", Json::number(wait_seconds));
  // The transport deadline must outlast the server-side wait.
  return request(req, wait_seconds + 30.0);
}

Json Client::stats(double timeout_seconds) {
  Json req = Json::object();
  req.set("op", Json::string("stats"));
  return request(req, timeout_seconds);
}

bool Client::ping() {
  try {
    Json req = Json::object();
    req.set("op", Json::string("ping"));
    const Json resp = request(req, 5.0);
    const Json* ok = resp.find("ok");
    return ok != nullptr && ok->is_bool() && ok->as_bool();
  } catch (...) {
    return false;
  }
}

void Client::shutdown_server() {
  Json req = Json::object();
  req.set("op", Json::string("shutdown"));
  (void)request(req, 5.0);
}

}  // namespace scanc::svc
