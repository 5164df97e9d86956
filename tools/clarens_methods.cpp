// clarens_methods: dump the method registry of a fully-loaded server as
// a stable markdown table, derived from the per-method metadata the
// binding layer records (help, signature, public flag, ACL path).
//
//   clarens_methods                    print the generated table
//   clarens_methods --check FILE       verify FILE contains the same
//                                      table between the BEGIN/END
//                                      markers (doc-drift check; the
//                                      method_doc_drift ctest runs this
//                                      against docs/SERVICES.md)
//
// On drift, prints both versions and exits 1; regenerate the region in
// the doc by pasting this tool's output.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/server.hpp"
#include "discovery/discovery_server.hpp"
#include "storage/mass_storage.hpp"
#include "storage/srm.hpp"

namespace {

constexpr const char* kBegin =
    "<!-- BEGIN GENERATED METHOD TABLE (clarens_methods) -->";
constexpr const char* kEnd =
    "<!-- END GENERATED METHOD TABLE (clarens_methods) -->";

std::string generated_table() {
  namespace fs = std::filesystem;
  // A throwaway sandbox/storage tree so every optional service module
  // (shell, job, transfer, discovery, srm) registers its methods.
  fs::path scratch =
      fs::temp_directory_path() / "clarens_methods_scratch";
  fs::remove_all(scratch);
  fs::create_directories(scratch / "sandbox");

  clarens::core::ClarensConfig config;
  config.sandbox_base = (scratch / "sandbox").string();
  config.session_reap_interval_s = 0;
  // Head role so the federation layer registers too: the federated
  // file.* variants replace the standalone bindings in the table, and
  // file.locate / file.layout / replica.* appear. (The repair engine is
  // constructed but never started — no worker thread runs here.)
  config.node_role = clarens::core::NodeRole::Head;
  config.node_ticket_secret = "documentation-only-secret";
  clarens::core::ClarensServer server(std::move(config));

  clarens::db::Store discovery_store;
  clarens::discovery::DiscoveryServer discovery(discovery_store);
  server.attach_discovery(discovery);

  clarens::storage::MassStorage storage((scratch / "tape").string(),
                                        (scratch / "cache").string(),
                                        1 << 20);
  clarens::storage::SrmService srm(storage, /*workers=*/1);
  server.attach_storage(srm);

  std::ostringstream out;
  out << kBegin << "\n";
  out << "| method | signature | flags | description |\n";
  out << "|---|---|---|---|\n";
  for (const auto& name : server.registry().list()) {
    clarens::rpc::MethodInfo info = server.registry().info(name);
    std::string flags;
    if (info.is_public) flags = "public";
    if (!info.acl_path.empty()) {
      if (!flags.empty()) flags += ", ";
      flags += "acl=" + info.acl_path;
    }
    // '|' in a signature ("base64|string") would split the table cell.
    std::string signature;
    for (char c : info.signature) {
      if (c == '|') signature += '\\';
      signature += c;
    }
    out << "| `" << info.name << "` | `" << signature << "` | " << flags
        << " | " << info.help << " |\n";
  }
  out << kEnd << "\n";

  server.stop();
  fs::remove_all(scratch);
  return out.str();
}

/// The marker-delimited region of `text`, inclusive, or "" if absent.
std::string marked_region(const std::string& text) {
  std::size_t begin = text.find(kBegin);
  std::size_t end = text.find(kEnd);
  if (begin == std::string::npos || end == std::string::npos || end < begin) {
    return {};
  }
  end += std::string(kEnd).size();
  std::string region = text.substr(begin, end - begin);
  region += '\n';
  return region;
}

}  // namespace

int main(int argc, char** argv) {
  std::string check_file;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--check" && i + 1 < argc) {
      check_file = argv[++i];
    } else {
      std::cerr << "usage: clarens_methods [--check FILE]\n";
      return 2;
    }
  }

  std::string expected = generated_table();
  if (check_file.empty()) {
    std::cout << expected;
    return 0;
  }

  std::ifstream in(check_file);
  if (!in) {
    std::cerr << "clarens_methods: cannot open " << check_file << "\n";
    return 2;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::string actual = marked_region(buffer.str());
  if (actual.empty()) {
    std::cerr << "clarens_methods: " << check_file
              << " has no generated-table markers\n";
    return 1;
  }
  if (actual != expected) {
    std::cerr << "clarens_methods: " << check_file
              << " is out of date with the registry.\n\n--- documented\n"
              << actual << "\n--- registry\n"
              << expected
              << "\nRegenerate by replacing the marked region with "
                 "`clarens_methods` output.\n";
    return 1;
  }
  std::cout << "clarens_methods: " << check_file << " matches the registry ("
            << std::count(expected.begin(), expected.end(), '\n') - 3
            << " methods)\n";
  return 0;
}
