// qlearnd: the server side of the serving benchmark, one role per process.
//
//   qlearnd serve
//       net::Server (inline dispatch) over a fresh SessionService.
//   qlearnd route --backend HOST:PORT [--backend ...]
//       net::Router over the given backends.
//
// Binds an ephemeral loopback port, prints "port N" on stdout once it is
// serving, and runs until SIGTERM or SIGINT.
#include <signal.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "net/router.h"
#include "net/server.h"
#include "net/shard_map.h"
#include "service/session_service.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: qlearnd serve\n"
               "       qlearnd route --backend HOST:PORT...\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string role = argv[1];
  std::vector<qlearn::net::BackendAddress> backends;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--backend") {
      const size_t colon = value.rfind(':');
      if (colon == std::string::npos) return Usage();
      backends.push_back(qlearn::net::BackendAddress{
          value.substr(0, colon),
          static_cast<uint16_t>(
              std::strtoul(value.c_str() + colon + 1, nullptr, 10))});
    } else {
      return Usage();
    }
  }

  // Block the stop signals before any thread starts, so every thread
  // inherits the mask and sigwait below receives them.
  sigset_t stop;
  sigemptyset(&stop);
  sigaddset(&stop, SIGTERM);
  sigaddset(&stop, SIGINT);
  pthread_sigmask(SIG_BLOCK, &stop, nullptr);

  std::unique_ptr<qlearn::service::SessionService> service;
  std::unique_ptr<qlearn::net::Server> server;
  std::unique_ptr<qlearn::net::Router> router;
  uint16_t port = 0;
  qlearn::common::Status started;
  if (role == "serve") {
    service = std::make_unique<qlearn::service::SessionService>();
    qlearn::net::ServerOptions options;
    options.workers = 0;
    server = std::make_unique<qlearn::net::Server>(service.get(), options);
    started = server->Start();
    if (started.ok()) port = server->port();
  } else if (role == "route" && !backends.empty()) {
    qlearn::net::ShardMap map;
    map.backends = backends;
    router = std::make_unique<qlearn::net::Router>(map);
    started = router->Start();
    if (started.ok()) port = router->port();
  } else {
    return Usage();
  }
  if (!started.ok()) {
    std::printf("error %s\n", started.ToString().c_str());
    return 1;
  }
  std::printf("port %u\n", static_cast<unsigned>(port));
  std::fflush(stdout);

  int signal = 0;
  sigwait(&stop, &signal);
  if (router) router->Stop();
  if (server) server->Stop();
  return 0;
}
