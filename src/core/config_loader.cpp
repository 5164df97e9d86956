#include "core/config_loader.hpp"

#include <cstdint>
#include <fstream>
#include <limits>
#include <sstream>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace clarens::core {

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw SystemError("cannot read file: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// "allow <path> <subject>" where subject is '*', a DN prefix, or
/// "group:<name>".
void apply_allow(AclSpec& spec, const std::string& subject) {
  if (util::starts_with(subject, "group:")) {
    spec.allow_groups.push_back(subject.substr(6));
  } else {
    spec.allow_dns.push_back(subject);
  }
}

}  // namespace

ClarensConfig config_from(const util::Config& config) {
  ClarensConfig out;
  out.host = config.get_or("host", out.host);
  out.port = static_cast<std::uint16_t>(config.get_int_or("port", 0));
  out.data_dir = config.get_or("data_dir", "");
  out.admins = config.get_all("admin");
  out.default_allow = config.get_bool_or("default_allow", false);
  out.use_tls = config.get_bool_or("use_tls", false);
  out.require_client_cert = config.get_bool_or("require_client_cert", false);
  out.session_ttl = config.get_int_or("session_ttl", out.session_ttl);
  out.challenge_ttl = config.get_int_or("challenge_ttl", out.challenge_ttl);
  out.max_read_chunk = config.get_int_or("max_read_chunk", out.max_read_chunk);
  // The binary-protocol blob framing carries a u32 length; a larger chunk
  // limit would let sendfile regions desynchronize the frame from the
  // HTTP Content-Length.
  if (out.max_read_chunk <= 0 ||
      static_cast<std::uint64_t>(out.max_read_chunk) >
          std::numeric_limits<std::uint32_t>::max()) {
    throw ParseError("max_read_chunk must be in (0, 4294967295]");
  }
  out.store_shards = static_cast<std::size_t>(config.get_int_or(
      "store_shards", static_cast<std::int64_t>(out.store_shards)));
  if (out.store_shards < 1 || out.store_shards > 1024) {
    throw ParseError("store_shards must be in [1, 1024]");
  }
  out.store_group_commit =
      config.get_bool_or("store_group_commit", out.store_group_commit);
  out.store_commit_interval_us = config.get_int_or(
      "store_commit_interval_us", out.store_commit_interval_us);
  if (out.store_commit_interval_us < 0 ||
      out.store_commit_interval_us > 1000000) {
    throw ParseError("store_commit_interval_us must be in [0, 1000000]");
  }
  out.store_commit_batch_max = static_cast<std::size_t>(config.get_int_or(
      "store_commit_batch_max",
      static_cast<std::int64_t>(out.store_commit_batch_max)));
  if (out.store_commit_batch_max < 1 || out.store_commit_batch_max > 65536) {
    throw ParseError("store_commit_batch_max must be in [1, 65536]");
  }
  out.store_compact_threshold = config.get_int_or("store_compact_threshold",
                                                  out.store_compact_threshold);
  if (out.store_compact_threshold < 4096) {
    throw ParseError("store_compact_threshold must be >= 4096");
  }
  out.session_durable_writes = config.get_bool_or("session_durable_writes",
                                                  out.session_durable_writes);
  out.inline_dispatch =
      config.get_bool_or("inline_dispatch", out.inline_dispatch);
  out.sendfile_threshold =
      config.get_int_or("sendfile_threshold", out.sendfile_threshold);
  out.sandbox_base = config.get_or("sandbox_base", "");
  out.portal_dir = config.get_or("portal_dir", "");
  out.farm = config.get_or("farm", out.farm);
  out.node = config.get_or("node", out.node);
  out.max_connections = static_cast<std::size_t>(
      config.get_int_or("max_connections", static_cast<std::int64_t>(out.max_connections)));
  out.publish_interval_ms = static_cast<int>(
      config.get_int_or("publish_interval_ms", out.publish_interval_ms));

  if (auto path = config.get("credential_file")) {
    out.credential = pki::Credential::decode(read_file(*path));
  }
  for (const auto& path : config.get_all("chain_file")) {
    out.chain.push_back(pki::Certificate::decode(read_file(path)));
  }
  for (const auto& path : config.get_all("trust_file")) {
    out.trust.add_authority(pki::Certificate::decode(read_file(path)));
  }
  if (auto path = config.get("user_map_file")) {
    out.user_map = parse_user_map(read_file(*path));
  }

  // file_root <virtual> <real>
  for (const auto& value : config.get_all("file_root")) {
    auto parts = util::split_trimmed(value, ' ');
    if (parts.size() != 2) {
      throw ParseError("file_root expects '<virtual> <real>': '" + value + "'");
    }
    out.file_roots[parts[0]] = parts[1];
  }

  // allow <method-path> <subject>   (accumulates per path)
  std::map<std::string, AclSpec> method_acls;
  for (const auto& value : config.get_all("allow")) {
    auto parts = util::split_trimmed(value, ' ');
    if (parts.size() != 2) {
      throw ParseError("allow expects '<method-path> <subject>': '" + value + "'");
    }
    apply_allow(method_acls[parts[0]], parts[1]);
  }
  for (auto& [path, spec] : method_acls) {
    out.initial_method_acls.emplace_back(path, std::move(spec));
  }

  // file_allow <path> <subject>  (grants read and write)
  std::map<std::string, FileAcl> file_acls;
  for (const auto& value : config.get_all("file_allow")) {
    auto parts = util::split_trimmed(value, ' ');
    if (parts.size() != 2) {
      throw ParseError("file_allow expects '<path> <subject>': '" + value + "'");
    }
    apply_allow(file_acls[parts[0]].read, parts[1]);
    apply_allow(file_acls[parts[0]].write, parts[1]);
  }
  // file_allow_read / file_allow_write for finer grants.
  for (const auto& value : config.get_all("file_allow_read")) {
    auto parts = util::split_trimmed(value, ' ');
    if (parts.size() != 2) {
      throw ParseError("file_allow_read expects '<path> <subject>'");
    }
    apply_allow(file_acls[parts[0]].read, parts[1]);
  }
  for (const auto& value : config.get_all("file_allow_write")) {
    auto parts = util::split_trimmed(value, ' ');
    if (parts.size() != 2) {
      throw ParseError("file_allow_write expects '<path> <subject>'");
    }
    apply_allow(file_acls[parts[0]].write, parts[1]);
  }
  for (auto& [path, acl] : file_acls) {
    out.initial_file_acls.emplace_back(path, std::move(acl));
  }

  // --- Federation knobs (ISSUE 8) -------------------------------------
  if (auto role = config.get("node_role")) {
    if (*role == "standalone") {
      out.node_role = NodeRole::Standalone;
    } else if (*role == "head") {
      out.node_role = NodeRole::Head;
    } else if (*role == "storage") {
      out.node_role = NodeRole::Storage;
    } else {
      throw ParseError("node_role must be 'standalone', 'head' or 'storage'"
                       ", got '" + *role + "'");
    }
  }
  out.head_url = config.get_or("head_url", "");
  if (!out.head_url.empty() &&
      !util::starts_with(out.head_url, "http://") &&
      !util::starts_with(out.head_url, "https://")) {
    throw ParseError("head_url must start with http:// or https://: '" +
                     out.head_url + "'");
  }
  out.node_ticket_secret = config.get_or("node_ticket_secret", "");
  if (out.node_role != NodeRole::Standalone &&
      out.node_ticket_secret.size() < 16) {
    throw ParseError(
        "head/storage roles require node_ticket_secret of >= 16 characters "
        "(it signs the cluster's node tickets)");
  }
  if (out.node_role == NodeRole::Storage && out.head_url.empty()) {
    throw ParseError("node_role storage requires head_url");
  }
  out.placement_replicas = static_cast<int>(
      config.get_int_or("placement_replicas", out.placement_replicas));
  if (out.placement_replicas < 1 || out.placement_replicas > 8) {
    throw ParseError("placement_replicas must be in [1, 8]");
  }
  if (auto capacity = config.get("node_capacity")) {
    try {
      out.node_capacity = std::stod(*capacity);
    } catch (const std::exception&) {
      throw ParseError("node_capacity must be a number: '" + *capacity + "'");
    }
    if (!(out.node_capacity > 0)) {
      throw ParseError("node_capacity must be > 0");
    }
  }
  out.federation_refresh_ms = static_cast<int>(
      config.get_int_or("federation_refresh_ms", out.federation_refresh_ms));
  if (out.federation_refresh_ms < 0 || out.federation_refresh_ms > 60000) {
    throw ParseError("federation_refresh_ms must be in [0, 60000]");
  }
  out.node_ticket_ttl_s = static_cast<int>(
      config.get_int_or("node_ticket_ttl_s", out.node_ticket_ttl_s));
  if (out.node_ticket_ttl_s < 1 || out.node_ticket_ttl_s > 86400) {
    throw ParseError("node_ticket_ttl_s must be in [1, 86400]");
  }
  out.placement_prefix_depth = static_cast<int>(config.get_int_or(
      "placement_prefix_depth", out.placement_prefix_depth));
  if (out.placement_prefix_depth < 1 || out.placement_prefix_depth > 8) {
    throw ParseError("placement_prefix_depth must be in [1, 8]");
  }

  // Replication / self-healing (head role).
  out.replication_grace_ms = static_cast<int>(
      config.get_int_or("replication_grace_ms", out.replication_grace_ms));
  if (out.replication_grace_ms < 100 || out.replication_grace_ms > 600000) {
    throw ParseError("replication_grace_ms must be in [100, 600000]");
  }
  out.replication_retry_max = static_cast<int>(
      config.get_int_or("replication_retry_max", out.replication_retry_max));
  if (out.replication_retry_max < 1 || out.replication_retry_max > 64) {
    throw ParseError("replication_retry_max must be in [1, 64]");
  }
  out.replication_retry_base_ms = static_cast<int>(config.get_int_or(
      "replication_retry_base_ms", out.replication_retry_base_ms));
  if (out.replication_retry_base_ms < 1 ||
      out.replication_retry_base_ms > 60000) {
    throw ParseError("replication_retry_base_ms must be in [1, 60000]");
  }
  out.replication_retry_max_ms = static_cast<int>(config.get_int_or(
      "replication_retry_max_ms", out.replication_retry_max_ms));
  if (out.replication_retry_max_ms < out.replication_retry_base_ms ||
      out.replication_retry_max_ms > 600000) {
    throw ParseError(
        "replication_retry_max_ms must be in [replication_retry_base_ms, "
        "600000]");
  }
  out.fsck_interval_ms = static_cast<int>(
      config.get_int_or("fsck_interval_ms", out.fsck_interval_ms));
  if (out.fsck_interval_ms < 0 || out.fsck_interval_ms > 86400000) {
    throw ParseError("fsck_interval_ms must be in [0, 86400000]");
  }
  out.replica_suspect_ttl_ms = static_cast<int>(config.get_int_or(
      "replica_suspect_ttl_ms", out.replica_suspect_ttl_ms));
  if (out.replica_suspect_ttl_ms < 0 || out.replica_suspect_ttl_ms > 600000) {
    throw ParseError("replica_suspect_ttl_ms must be in [0, 600000]");
  }

  // station <host>:<port>
  if (auto value = config.get("station")) {
    std::size_t colon = value->rfind(':');
    if (colon == std::string::npos) {
      throw ParseError("station expects '<host>:<port>': '" + *value + "'");
    }
    out.station = {{value->substr(0, colon),
                    static_cast<std::uint16_t>(
                        util::parse_uint(value->substr(colon + 1)))}};
  }

  if (out.use_tls && !out.credential) {
    throw ParseError("use_tls requires credential_file");
  }
  return out;
}

ClarensConfig load_config_file(const std::string& path) {
  return config_from(util::Config::load(path));
}

}  // namespace clarens::core
