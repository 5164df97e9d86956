#include "core/shell_service.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/file_service.hpp"
#include "core/vo.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace fs = std::filesystem;

namespace clarens::core {

std::vector<UserMapEntry> parse_user_map(std::string_view text) {
  std::vector<UserMapEntry> entries;
  for (const auto& raw_line : util::split(text, '\n')) {
    std::string_view line = util::trim(raw_line);
    if (line.empty() || line.front() == '#') continue;
    auto fields = util::split(line, ';');
    if (fields.empty() || util::trim(fields[0]).empty()) {
      throw ParseError("user map line missing system user: '" +
                       std::string(line) + "'");
    }
    UserMapEntry entry;
    entry.system_user = std::string(util::trim(fields[0]));
    if (fields.size() > 1) entry.dns = util::split_trimmed(fields[1], ',');
    if (fields.size() > 2) entry.groups = util::split_trimmed(fields[2], ',');
    if (fields.size() > 3) entry.reserved = util::split_trimmed(fields[3], ',');
    entries.push_back(std::move(entry));
  }
  return entries;
}

std::vector<std::string> shell_tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::string current;
  bool in_token = false;
  char quote = '\0';
  for (std::size_t i = 0; i < line.size(); ++i) {
    char c = line[i];
    if (quote) {
      if (c == quote) {
        quote = '\0';
      } else {
        current.push_back(c);
      }
      continue;
    }
    if (c == '\'' || c == '"') {
      quote = c;
      in_token = true;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      if (in_token) {
        tokens.push_back(std::move(current));
        current.clear();
        in_token = false;
      }
      continue;
    }
    current.push_back(c);
    in_token = true;
  }
  if (quote) throw ParseError("unterminated quote in command");
  if (in_token) tokens.push_back(std::move(current));
  return tokens;
}

ShellService::ShellService(VoManager& vo, std::string sandbox_base)
    : vo_(vo), sandbox_base_(std::move(sandbox_base)) {
  fs::create_directories(sandbox_base_);
}

void ShellService::set_user_map(std::vector<UserMapEntry> entries) {
  util::LockGuard lock(mutex_);
  entries_ = std::move(entries);
}

void ShellService::load_user_map_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw SystemError("cannot open user map: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  set_user_map(parse_user_map(buf.str()));
}

std::optional<std::string> ShellService::map_user(
    const pki::DistinguishedName& dn) const {
  // VO membership checks below read the store while we hold the map lock.
  // lock-order: core.shell -> db.store.shard
  util::LockGuard lock(mutex_);
  for (const auto& entry : entries_) {
    for (const auto& prefix : entry.dns) {
      try {
        if (pki::DistinguishedName::parse(prefix).is_prefix_of(dn)) {
          return entry.system_user;
        }
      } catch (const ParseError&) {
      }
    }
    for (const auto& group : entry.groups) {
      if (vo_.is_member(group, dn)) return entry.system_user;
    }
  }
  return std::nullopt;
}

std::string ShellService::sandbox_dir(const std::string& system_user) const {
  return (fs::path(sandbox_base_) / system_user).string();
}

std::string ShellService::cmd_info(const pki::DistinguishedName& dn) {
  auto user = map_user(dn);
  if (!user) throw AccessError("no system user mapped for " + dn.str());
  fs::create_directories(sandbox_dir(*user));
  return "/sandbox/" + *user;
}

ShellResult ShellService::execute(const pki::DistinguishedName& dn,
                                  const std::string& command_line) {
  auto user = map_user(dn);
  if (!user) throw AccessError("no system user mapped for " + dn.str());
  fs::create_directories(sandbox_dir(*user));
  std::vector<std::string> argv = shell_tokenize(command_line);
  if (argv.empty()) return {0, "", ""};
  return run_builtin(*user, argv);
}

std::vector<std::string> ShellService::supported_commands() {
  return {"cat", "cd",    "cp",   "echo", "find", "head", "id",
          "ls",  "mkdir", "mv",   "pwd",  "rm",   "tail", "touch",
          "wc",  "grep",  "stat"};
}

namespace {

/// Resolve `arg` against the sandbox (cwd-relative or sandbox-absolute)
/// and refuse escapes and the file service's hidden overwrite files.
fs::path resolve_in_sandbox(const fs::path& sandbox, const std::string& cwd,
                            const std::string& arg) {
  fs::path p = arg.empty() || arg[0] != '/' ? fs::path(cwd) / arg
                                            : fs::path(arg).relative_path();
  for (const fs::path& part : p) {
    if (FileService::is_write_scratch(part.native())) {
      throw AccessError("reserved file name in '" + arg + "'");
    }
  }
  fs::path full = (sandbox / p).lexically_normal();
  auto rel = full.lexically_relative(sandbox.lexically_normal());
  if (!rel.empty() && *rel.begin() == "..") {
    throw AccessError("path escapes sandbox: '" + arg + "'");
  }
  return full;
}

std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  if (!in) throw NotFoundError("cannot open: " + p.filename().string());
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

}  // namespace

ShellResult ShellService::run_builtin(const std::string& system_user,
                                      const std::vector<std::string>& argv) {
  const fs::path sandbox = sandbox_dir(system_user);
  // One command at a time per service: commands mutate the shared cwd_
  // map and the filesystem; the restricted commands are all short.
  util::LockGuard lock(mutex_);
  std::string& cwd = cwd_[system_user];  // "" = sandbox root
  const std::string& cmd = argv[0];
  ShellResult result;

  auto fail = [&result](const std::string& message) {
    result.exit_code = 1;
    result.err = message + "\n";
    return result;
  };

  try {
    if (cmd == "echo") {
      for (std::size_t i = 1; i < argv.size(); ++i) {
        if (i > 1) result.out += ' ';
        result.out += argv[i];
      }
      result.out += '\n';
    } else if (cmd == "pwd") {
      result.out = "/" + cwd + "\n";
    } else if (cmd == "id") {
      result.out = "uid=" + system_user + "\n";
    } else if (cmd == "cd") {
      std::string target = argv.size() > 1 ? argv[1] : "/";
      fs::path full = resolve_in_sandbox(sandbox, cwd, target);
      if (!fs::is_directory(full)) return fail("cd: no such directory: " + target);
      cwd = full.lexically_relative(sandbox.lexically_normal()).string();
      if (cwd == ".") cwd.clear();
    } else if (cmd == "ls") {
      std::string target = argv.size() > 1 ? argv[1] : ".";
      fs::path full = resolve_in_sandbox(sandbox, cwd, target);
      if (fs::is_directory(full)) {
        std::vector<std::string> names;
        for (const auto& entry : fs::directory_iterator(full)) {
          std::string name = entry.path().filename().string();
          if (FileService::is_write_scratch(name)) continue;
          names.push_back(name + (entry.is_directory() ? "/" : ""));
        }
        std::sort(names.begin(), names.end());
        for (const auto& name : names) result.out += name + "\n";
      } else if (fs::exists(full)) {
        result.out = full.filename().string() + "\n";
      } else {
        return fail("ls: no such file or directory: " + target);
      }
    } else if (cmd == "cat") {
      if (argv.size() < 2) return fail("cat: missing operand");
      for (std::size_t i = 1; i < argv.size(); ++i) {
        result.out += read_file(resolve_in_sandbox(sandbox, cwd, argv[i]));
      }
    } else if (cmd == "mkdir") {
      if (argv.size() < 2) return fail("mkdir: missing operand");
      for (std::size_t i = 1; i < argv.size(); ++i) {
        fs::create_directories(resolve_in_sandbox(sandbox, cwd, argv[i]));
      }
    } else if (cmd == "touch") {
      if (argv.size() < 2) return fail("touch: missing operand");
      for (std::size_t i = 1; i < argv.size(); ++i) {
        std::ofstream(resolve_in_sandbox(sandbox, cwd, argv[i]),
                      std::ios::app);
      }
    } else if (cmd == "rm") {
      if (argv.size() < 2) return fail("rm: missing operand");
      for (std::size_t i = 1; i < argv.size(); ++i) {
        if (argv[i] == "-r" || argv[i] == "-rf") continue;
        fs::path full = resolve_in_sandbox(sandbox, cwd, argv[i]);
        if (!fs::remove_all(full)) return fail("rm: cannot remove: " + argv[i]);
      }
    } else if (cmd == "cp" || cmd == "mv") {
      if (argv.size() != 3) return fail(cmd + ": expected source and dest");
      fs::path src = resolve_in_sandbox(sandbox, cwd, argv[1]);
      fs::path dst = resolve_in_sandbox(sandbox, cwd, argv[2]);
      if (fs::is_directory(dst)) dst /= src.filename();
      if (cmd == "cp") {
        fs::copy(src, dst, fs::copy_options::recursive |
                               fs::copy_options::overwrite_existing);
      } else {
        fs::rename(src, dst);
      }
    } else if (cmd == "head" || cmd == "tail") {
      if (argv.size() < 2) return fail(cmd + ": missing operand");
      std::size_t count = 10;
      std::size_t file_arg = 1;
      if (argv[1] == "-n" && argv.size() >= 4) {
        count = static_cast<std::size_t>(util::parse_uint(argv[2]));
        file_arg = 3;
      }
      std::string content = read_file(resolve_in_sandbox(sandbox, cwd, argv[file_arg]));
      auto lines = util::split(content, '\n');
      if (!lines.empty() && lines.back().empty()) lines.pop_back();
      std::size_t n = std::min(count, lines.size());
      if (cmd == "head") {
        for (std::size_t i = 0; i < n; ++i) result.out += lines[i] + "\n";
      } else {
        for (std::size_t i = lines.size() - n; i < lines.size(); ++i) {
          result.out += lines[i] + "\n";
        }
      }
    } else if (cmd == "wc") {
      if (argv.size() < 2) return fail("wc: missing operand");
      std::string content = read_file(resolve_in_sandbox(sandbox, cwd, argv[1]));
      std::size_t lines = 0, words = 0;
      bool in_word = false;
      for (char c : content) {
        if (c == '\n') ++lines;
        if (std::isspace(static_cast<unsigned char>(c))) {
          in_word = false;
        } else if (!in_word) {
          in_word = true;
          ++words;
        }
      }
      result.out = std::to_string(lines) + " " + std::to_string(words) + " " +
                   std::to_string(content.size()) + " " + argv[1] + "\n";
    } else if (cmd == "grep") {
      if (argv.size() < 3) return fail("grep: usage: grep PATTERN FILE");
      std::string content = read_file(resolve_in_sandbox(sandbox, cwd, argv[2]));
      bool any = false;
      for (const auto& line : util::split(content, '\n')) {
        if (line.find(argv[1]) != std::string::npos) {
          result.out += line + "\n";
          any = true;
        }
      }
      if (!any) result.exit_code = 1;
    } else if (cmd == "find") {
      std::string target = argv.size() > 1 ? argv[1] : ".";
      fs::path full = resolve_in_sandbox(sandbox, cwd, target);
      if (!fs::exists(full)) return fail("find: no such path: " + target);
      std::vector<std::string> found;
      found.push_back(target);
      if (fs::is_directory(full)) {
        for (const auto& entry : fs::recursive_directory_iterator(full)) {
          if (FileService::is_write_scratch(entry.path().filename().string())) {
            continue;
          }
          found.push_back(
              (fs::path(target) / entry.path().lexically_relative(full)).string());
        }
      }
      std::sort(found.begin(), found.end());
      for (const auto& f : found) result.out += f + "\n";
    } else if (cmd == "stat") {
      if (argv.size() < 2) return fail("stat: missing operand");
      fs::path full = resolve_in_sandbox(sandbox, cwd, argv[1]);
      if (!fs::exists(full)) return fail("stat: no such file: " + argv[1]);
      result.out = argv[1] + " size=" +
                   std::to_string(fs::is_directory(full)
                                      ? 0
                                      : static_cast<long long>(fs::file_size(full))) +
                   (fs::is_directory(full) ? " type=dir" : " type=file") + "\n";
    } else {
      return fail(cmd + ": command not found");
    }
  } catch (const Error& e) {
    return fail(e.what());
  } catch (const fs::filesystem_error& e) {
    return fail(e.what());
  }
  return result;
}

}  // namespace clarens::core
