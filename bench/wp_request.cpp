// Line-oriented client for the wp_serve daemon.
//
// Usage:
//   wp_request [--socket PATH] [--connect-retries N] [REQUEST...]
//
// Each REQUEST argument is one flat JSON request line (see
// driver/service.hpp); with no REQUEST arguments the lines come from
// stdin, one request per line. Replies print to stdout in request
// order, one line each — so `diff` over two transcript files is the
// whole byte-identical-replay check.
//
// The socket defaults to $WP_SERVE_SOCKET, then "wp_serve.sock".
// --connect-retries (default 50, 100 ms apart) covers the daemon's
// preparation window so scripts can start both sides concurrently.
//
// Exit codes:
//   0  every reply had fate "served" or "ok"
//   1  usage error, connect failure, or the daemon hung up mid-request
//   4  at least one reply carried a degraded fate (error, quarantined,
//      deadline, overloaded, draining)
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "driver/checkpoint.hpp"
#include "driver/service.hpp"
#include "support/number.hpp"
#include "support/socket.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--socket PATH] [--connect-retries N] "
               "[REQUEST...]\n",
               argv0);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace wp;

  const char* env_socket = std::getenv("WP_SERVE_SOCKET");
  std::string socket_path =
      env_socket != nullptr && *env_socket != '\0' ? env_socket
                                                   : "wp_serve.sock";
  unsigned connect_retries = 50;
  std::vector<std::string> requests;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--socket") {
      if (++i >= argc) return usage(argv[0]);
      socket_path = argv[i];
    } else if (arg == "--connect-retries") {
      if (++i >= argc) return usage(argv[0]);
      const std::optional<u64> v = parseUnsigned(argv[i], /*hex=*/false);
      if (!v || *v > 100000) return usage(argv[0]);
      connect_retries = static_cast<unsigned>(*v);
    } else if (!arg.empty() && arg[0] == '-') {
      return usage(argv[0]);
    } else {
      requests.push_back(arg);
    }
  }
  if (requests.empty()) {
    std::string line;
    while (std::getline(std::cin, line)) {
      if (!line.empty()) requests.push_back(line);
    }
  }
  if (requests.empty()) return usage(argv[0]);

  std::string error;
  int fd = -1;
  for (unsigned attempt = 0;; ++attempt) {
    fd = support::connectUnix(socket_path, error);
    if (fd >= 0) break;
    if (attempt >= connect_retries) {
      std::fprintf(stderr, "error: wp_request: %s\n", error.c_str());
      return 1;
    }
    ::usleep(100 * 1000);
  }

  support::LineReader reader(fd);
  bool degraded = false;
  for (const std::string& request : requests) {
    if (!support::sendAll(fd, request + "\n")) {
      std::fprintf(stderr,
                   "error: wp_request: daemon hung up while sending\n");
      ::close(fd);
      return 1;
    }
    std::string reply;
    if (!reader.next(reply, driver::SweepService::kMaxLineBytes)) {
      std::fprintf(stderr,
                   "error: wp_request: daemon hung up before replying\n");
      ::close(fd);
      return 1;
    }
    std::cout << reply << "\n";
    std::map<std::string, driver::JsonToken> tokens;
    const auto fate = [&]() -> std::string {
      if (!driver::parseFlatJsonLine(reply, tokens)) return "";
      const auto it = tokens.find("fate");
      return it == tokens.end() ? "" : it->second.text;
    }();
    if (fate != "served" && fate != "ok") degraded = true;
  }
  ::close(fd);
  return degraded ? 4 : 0;
}
