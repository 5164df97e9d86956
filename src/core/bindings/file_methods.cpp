// file.* — remote file access under virtual roots (paper §2.3).
#include "core/bindings/bindings.hpp"

#include <optional>

#include "client/peer_pool.hpp"
#include "core/file_service.hpp"
#include "federation/node_ticket.hpp"
#include "util/clock.hpp"
#include "util/error.hpp"

namespace clarens::core::bindings {

void check_ticket(const rpc::CallContext& context, const std::string& path,
                  bool write) {
  if (!context.via_ticket) return;
  if (write && !context.ticket_write) {
    throw AccessError("node ticket is read-only: " + path);
  }
  if (!federation::NodeTicket::scope_covers(context.ticket_scope, path)) {
    throw AccessError("node ticket does not cover path: " + path);
  }
}

namespace {

rpc::Value stat_value(const FileStat& st) {
  rpc::Value v = rpc::Value::struct_();
  v.set("name", st.name);
  v.set("is_directory", st.is_directory);
  v.set("size", st.size);
  v.set("mtime", rpc::DateTime{st.mtime});
  return v;
}

}  // namespace

void register_file_methods(FileService& files, rpc::Registry& registry,
                           CommitHook on_commit) {
  FileService* f = &files;
  // Fire the commit hook only for ticket-authorized mutations: those are
  // the replicated writes a storage node executes on the head's behalf,
  // and the hook's job is to report the landed bytes back to the head's
  // layout table. Session-authenticated (local/standalone) writes have
  // no layout entry to confirm. Replica copies land through file.pull,
  // which bypasses this hook: the head already knows their checksum.
  auto committed = [on_commit](const rpc::CallContext& context,
                               const std::string& path) {
    if (on_commit && context.via_ticket) {
      on_commit(context, path);
    }
  };

  registry.bind(
      "file.read",
      [f](const rpc::CallContext& context, const std::string& path,
          std::int64_t offset, std::int64_t length)
          -> std::vector<std::uint8_t> {
        check_ticket(context, path, /*write=*/false);
        // When the transport can stream a file region zero-copy and the
        // request is large enough to be worth it, hand back the resolved
        // range instead of materializing the bytes; the dispatcher
        // splices it into the response framing with sendfile(2). The
        // empty return value is discarded.
        std::int64_t threshold = f->sendfile_threshold();
        if (context.offer_file_region && threshold >= 0 &&
            length >= threshold) {
          FileService::ResolvedRegion region =
              f->read_region(path, offset, length, caller_dn(context));
          context.file_region = {region.real_path, region.offset,
                                 region.length};
          return {};
        }
        return f->read(path, offset, length, caller_dn(context));
      },
      {.help = "Read a byte range of a remote file",
       .params = {"path", "offset", "length"}});

  registry.bind(
      "file.write",
      [f, committed](const rpc::CallContext& context, const std::string& path,
                     rpc::Blob data) {
        check_ticket(context, path, /*write=*/true);
        f->write(path, data.bytes, caller_dn(context));
        committed(context, path);
        return true;
      },
      {.help = "Create or overwrite a remote file",
       .params = {"path", "data"}});

  registry.bind(
      "file.append",
      [f, committed](const rpc::CallContext& context, const std::string& path,
                     rpc::Blob data) {
        check_ticket(context, path, /*write=*/true);
        f->append(path, data.bytes, caller_dn(context));
        committed(context, path);
        return true;
      },
      {.help = "Append to (creating if needed) a remote file",
       .params = {"path", "data"}});

  registry.bind(
      "file.ls",
      [f](const rpc::CallContext& context, const std::string& path) {
        check_ticket(context, path, /*write=*/false);
        rpc::Array out;
        for (const auto& st : f->ls(path, caller_dn(context))) {
          out.push_back(stat_value(st));
        }
        return out;
      },
      {.help = "Directory listing", .params = {"path"}});

  registry.bind(
      "file.stat",
      [f](const rpc::CallContext& context, const std::string& path) {
        check_ticket(context, path, /*write=*/false);
        return rpc::StructResult{stat_value(f->stat(path, caller_dn(context)))};
      },
      {.help = "File or directory information", .params = {"path"}});

  registry.bind(
      "file.md5",
      [f](const rpc::CallContext& context, const std::string& path) {
        check_ticket(context, path, /*write=*/false);
        return f->md5(path, caller_dn(context));
      },
      {.help = "MD5 integrity hash of a file", .params = {"path"}});

  registry.bind(
      "file.checksum",
      [f](const rpc::CallContext& context, const std::string& path) {
        check_ticket(context, path, /*write=*/false);
        FileService::FileChecksum sum = f->checksum(path, caller_dn(context));
        rpc::Value v = rpc::Value::struct_();
        v.set("md5", sum.md5);
        v.set("size", sum.size);
        return rpc::StructResult{std::move(v)};
      },
      {.help = "MD5 hash and size in one pass (fsck scrub primitive)",
       .params = {"path"}});

  registry.bind(
      "file.size",
      [f](const rpc::CallContext& context, const std::string& path) {
        check_ticket(context, path, /*write=*/false);
        return f->size(path, caller_dn(context));
      },
      {.help = "Size of a file in bytes", .params = {"path"}});

  registry.bind(
      "file.find",
      [f](const rpc::CallContext& context, const std::string& path,
          const std::string& pattern) {
        check_ticket(context, path, /*write=*/false);
        return f->find(path, pattern, caller_dn(context));
      },
      {.help = "Recursive filename search", .params = {"path", "pattern"}});

  registry.bind(
      "file.mkdir",
      [f](const rpc::CallContext& context, const std::string& path) {
        check_ticket(context, path, /*write=*/true);
        f->mkdir(path, caller_dn(context));
        return true;
      },
      {.help = "Create a directory", .params = {"path"}});

  registry.bind(
      "file.rm",
      [f](const rpc::CallContext& context, const std::string& path) {
        check_ticket(context, path, /*write=*/true);
        f->remove(path, caller_dn(context));
        return true;
      },
      {.help = "Remove a file or directory tree", .params = {"path"}});

  registry.bind(
      "file.roots", [f] { return f->roots(); },
      {.help = "Configured virtual root prefixes"});
}

void register_pull_method(FileService& files,
                          const crypto::HmacSha256& ticket_key,
                          client::PeerPool& peers, rpc::Registry& registry) {
  FileService* f = &files;
  registry.bind(
      "file.pull",
      [f, &ticket_key, &peers](
          const rpc::CallContext& context, const std::string& source_url,
          const std::string& source_ticket, const std::string& path,
          const std::string& expected_md5) {
        if (!context.via_ticket) {
          throw AccessError("file.pull needs a node ticket");
        }
        check_ticket(context, path, /*write=*/true);
        // Only a head-minted read ticket for this caller and this path is
        // ever presented to the source, and it is checked before any
        // connection is made.
        std::optional<federation::NodeTicket> source =
            federation::NodeTicket::verify(ticket_key, source_ticket,
                                           util::unix_now());
        if (!source || source->write || source->dn != context.identity ||
            !source->covers(path)) {
          throw AccessError("source ticket is not a read ticket for " + path);
        }
        pki::DistinguishedName who = caller_dn(context);
        // Create the parent only where the ticket reaches; elsewhere it
        // must already exist.
        std::string parent = path.substr(0, path.rfind('/'));
        if (!parent.empty() && federation::NodeTicket::scope_covers(
                                   context.ticket_scope, parent)) {
          f->mkdir(parent, who);
        }
        client::PeerPool::Lease lease = peers.lease(source_url);
        lease->set_header("X-Clarens-Node-Ticket", source_ticket);
        std::int64_t copied = 0;
        try {
          f->pull(*lease, path, path, expected_md5, who, copied);
        } catch (const SystemError&) {
          lease.discard();
          throw;
        }
        return copied;
      },
      {.help = "Copy a file from another storage node, verifying its md5",
       .params = {"source_url", "source_ticket", "path", "expected_md5"},
       .acl_path = "file.write"});
}

}  // namespace clarens::core::bindings
