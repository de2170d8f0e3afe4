// pathrouting_serverd — serve routing certificates over stdin/stdout.
//
// A thin shell around service::CertificateService speaking the line
// protocol of service/protocol.hpp:
//
//   $ pathrouting_serverd --store=/tmp/certs
//   ready store=/tmp/certs engine=1
//   get strassen 3 chain
//   cert alg=strassen k=3 kind=chain cached=0 ...
//   batch
//   get strassen 4 chain
//   get winograd 3 decode
//   end
//   cert ...
//   cert ...
//   end
//   stats
//   stats requests=3 store_hits=0 computed=3 ...
//   quit
//
// The CI smoke test drives exactly this loop: replay a small trace,
// assert cached=1 appears once a key repeats. Exits 0 on quit/EOF.
#include <climits>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "pathrouting/service/protocol.hpp"
#include "pathrouting/service/replay.hpp"
#include "pathrouting/service/service.hpp"
#include "pathrouting/support/cli.hpp"

namespace {

using namespace pathrouting;  // NOLINT

int run(service::CertificateService& svc) {
  bool in_batch = false;
  std::vector<service::Request> batch;
  std::string line;
  while (std::getline(std::cin, line)) {
    const service::Command cmd = service::parse_command(line);
    switch (cmd.type) {
      case service::CommandType::kEmpty:
        break;
      case service::CommandType::kBad:
        std::cout << "error " << cmd.error << "\n" << std::flush;
        break;
      case service::CommandType::kGet:
        if (in_batch) {
          batch.push_back(cmd.request);
          break;
        }
        std::cout << service::format_response(cmd.request, svc.serve(cmd.request))
                  << "\n"
                  << std::flush;
        break;
      case service::CommandType::kBatch:
        if (in_batch) {
          std::cout << "error batch already open\n" << std::flush;
          break;
        }
        in_batch = true;
        batch.clear();
        break;
      case service::CommandType::kBatchEnd: {
        if (!in_batch) {
          std::cout << "error no batch open\n" << std::flush;
          break;
        }
        in_batch = false;
        const std::vector<service::Response> responses = svc.serve_batch(batch);
        for (std::size_t i = 0; i < batch.size(); ++i) {
          std::cout << service::format_response(batch[i], responses[i]) << "\n";
        }
        std::cout << "end\n" << std::flush;
        batch.clear();
        break;
      }
      case service::CommandType::kStats:
        std::cout << service::format_stats(svc.metrics()) << "\n" << std::flush;
        break;
      case service::CommandType::kQuit:
        return 0;
    }
  }
  return 0;  // EOF is a clean shutdown
}

}  // namespace

int main(int argc, char** argv) {
  support::Cli cli(argc, argv);
  const std::string store =
      cli.flag_str("store", "", "certificate store directory (empty = memory)");
  const bool audit = cli.flag_bool(
      "audit", false, "audit every served certificate (digest-match rule)");
  const std::int64_t segment_max_k = cli.flag_int(
      "segment-max-k", 5, "largest rank segment certificates may request");
  cli.finish(
      "Serve routing certificates over stdin/stdout (see "
      "service/protocol.hpp for the grammar).");
  if (segment_max_k < 0 || segment_max_k > INT_MAX) {
    cli.fail("--segment-max-k must be in [0, " + std::to_string(INT_MAX) +
             "], got " + std::to_string(segment_max_k));
  }

  service::ServiceConfig config;
  config.store_dir = store;
  config.audit_served = audit;
  config.segment_max_k = static_cast<int>(segment_max_k);
  service::CertificateService svc(config);
  std::printf("ready store=%s engine=%u\n",
              store.empty() ? "(memory)" : store.c_str(),
              service::kEngineVersion);
  std::fflush(stdout);
  return run(svc);
}
