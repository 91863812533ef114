/**
 * @file
 * Standalone warehouse server: a WarehouseManager behind the wire front
 * end (src/server/), run as a process.
 *
 * The process-level robustness contract lives here:
 *
 *  - SIGTERM / SIGINT trigger a graceful drain — stop accepting,
 *    finish or shed in-flight work, drain the ingestion queues so every
 *    acked run is in the WAL, flush outboxes — and the process exits 0.
 *  - SIGKILL (the crash-torture harness) is survived by the corpora's
 *    logs: restarting against the same --corpus-root recovers them.
 *
 * Usage: tool_warehouse_server [--port P] [--host H]
 *          [--corpus-root DIR] [--max-open N]
 *          [--max-pending N] [--max-conn-pending N]
 *          [--idle-timeout-ms N] [--drain-timeout-ms N]
 *          [--port-file FILE]
 *
 * With --port 0 (the default) an ephemeral port is bound; --port-file
 * writes "host port\n" atomically once listening, which is how the
 * soak/torture drivers find a server they just spawned.
 *
 * --corpus-root DIR keeps one subdirectory per corpus under DIR;
 * requests that name no corpus go to DIR/default. --max-open bounds the
 * open set (cold corpora are LRU-closed and reopened on demand).
 * Without --corpus-root the corpora live in memory only.
 */

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include <unistd.h>

#include "common/fs.h"
#include "server/server.h"
#include "service/warehouse_manager.h"

namespace {

// Signal flag; the main thread polls it (sigsuspend-free: the server
// owns epoll, main just sleeps). volatile sig_atomic_t is the only
// type a handler may write portably.
volatile std::sig_atomic_t g_shutdown = 0;

void
onShutdownSignal(int)
{
    g_shutdown = 1;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace dc;

    server::ServerOptions options;
    service::WarehouseManager::Options manager_options;
    manager_options.store.workers = 2;
    std::string port_file;

    for (int i = 1; i < argc; ++i) {
        const auto arg = [&](const char *name) {
            return std::strcmp(argv[i], name) == 0 && i + 1 < argc;
        };
        if (arg("--port")) {
            options.port =
                static_cast<std::uint16_t>(std::atoi(argv[++i]));
        } else if (arg("--host")) {
            options.host = argv[++i];
        } else if (arg("--corpus-root")) {
            manager_options.root_dir = argv[++i];
        } else if (arg("--max-open")) {
            manager_options.max_open =
                static_cast<std::size_t>(std::atoi(argv[++i]));
        } else if (arg("--max-pending")) {
            options.max_pending =
                static_cast<std::size_t>(std::atoi(argv[++i]));
        } else if (arg("--max-conn-pending")) {
            options.max_conn_pending =
                static_cast<std::size_t>(std::atoi(argv[++i]));
        } else if (arg("--idle-timeout-ms")) {
            options.idle_timeout_ms =
                static_cast<std::uint64_t>(std::atoll(argv[++i]));
        } else if (arg("--drain-timeout-ms")) {
            options.drain_timeout_ms =
                static_cast<std::uint64_t>(std::atoll(argv[++i]));
        } else if (arg("--port-file")) {
            port_file = argv[++i];
        } else {
            std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
            return 2;
        }
    }

    service::WarehouseManager manager(manager_options);
    server::WireServer server(manager, options);
    std::string error;
    if (!server.start(&error)) {
        std::fprintf(stderr, "cannot start server: %s\n", error.c_str());
        return 1;
    }
    std::printf("warehouse server on %s:%u (corpus-root: %s)\n",
                options.host.c_str(), server.port(),
                manager_options.root_dir.empty()
                    ? "<in-memory>"
                    : manager_options.root_dir.c_str());
    std::fflush(stdout);
    if (!port_file.empty()) {
        const std::string line =
            options.host + " " + std::to_string(server.port()) + "\n";
        if (!atomicWriteFile(port_file, line, &error)) {
            std::fprintf(stderr, "cannot write port file: %s\n",
                         error.c_str());
            server.stop();
            return 1;
        }
    }

    struct ::sigaction action {};
    action.sa_handler = onShutdownSignal;
    ::sigaction(SIGTERM, &action, nullptr);
    ::sigaction(SIGINT, &action, nullptr);

    while (g_shutdown == 0)
        ::usleep(50'000);

    std::printf("shutdown signal: draining\n");
    std::fflush(stdout);
    server.drain();
    server.stop();
    const server::ServerStats stats = server.stats();
    std::printf("drained: %llu requests, %llu shed, %llu deadline, "
                "%llu bad frames\n",
                static_cast<unsigned long long>(stats.requests),
                static_cast<unsigned long long>(stats.shed),
                static_cast<unsigned long long>(stats.deadline_exceeded),
                static_cast<unsigned long long>(stats.bad_frames));
    return 0;
}
