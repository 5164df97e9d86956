// Unit tests for the shell service: user-map parsing (the paper's
// .clarens_user_map format), tokenizing, the restricted interpreter,
// sandbox confinement and per-user isolation.
#include <gtest/gtest.h>

#include <fstream>

#include "core/shell_service.hpp"
#include "core/vo.hpp"
#include "db/store.hpp"
#include "test_fixtures.hpp"
#include "util/error.hpp"

namespace clarens::core {
namespace {

using clarens::testing::TempDir;

const char* kJoeStr = "/DC=org/DC=doegrids/OU=People/CN=Joe User";
const char* kAnnStr = "/DC=org/DC=doegrids/OU=People/CN=Ann Other";
const char* kEveStr = "/O=elsewhere/CN=Eve";

pki::DistinguishedName dn(const char* s) {
  return pki::DistinguishedName::parse(s);
}

TEST(UserMap, ParsesPaperFormat) {
  auto entries = parse_user_map(
      "# comment line\n"
      "joe ; /DC=org/DC=doegrids/OU=People/CN=Joe User ; cms.users ; \n"
      "ops ; /O=a/CN=x , /O=b/CN=y ; g1, g2 ; reserved1\n"
      "\n");
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].system_user, "joe");
  ASSERT_EQ(entries[0].dns.size(), 1u);
  EXPECT_EQ(entries[0].dns[0], "/DC=org/DC=doegrids/OU=People/CN=Joe User");
  EXPECT_EQ(entries[0].groups, (std::vector<std::string>{"cms.users"}));
  EXPECT_EQ(entries[1].dns.size(), 2u);
  EXPECT_EQ(entries[1].groups.size(), 2u);
  EXPECT_EQ(entries[1].reserved, (std::vector<std::string>{"reserved1"}));
}

TEST(UserMap, RejectsMissingUser) {
  EXPECT_THROW(parse_user_map(" ; /O=x/CN=y ; ;\n"), ParseError);
}

TEST(Tokenize, QuotingRules) {
  EXPECT_EQ(shell_tokenize("a b  c"), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(shell_tokenize("echo 'two words'"),
            (std::vector<std::string>{"echo", "two words"}));
  EXPECT_EQ(shell_tokenize("echo \"it's\""),
            (std::vector<std::string>{"echo", "it's"}));
  EXPECT_EQ(shell_tokenize("a''b"), (std::vector<std::string>{"ab"}));
  EXPECT_TRUE(shell_tokenize("   ").empty());
  EXPECT_THROW(shell_tokenize("echo 'open"), ParseError);
}

struct ShellFixture : ::testing::Test {
  db::Store store;
  VoManager vo{store, {"/O=grid/CN=Root"}};
  TempDir tmp;
  ShellService shell{vo, tmp.sub("sandboxes")};

  ShellFixture() {
    UserMapEntry joe;
    joe.system_user = "joe";
    joe.dns = {kJoeStr};
    UserMapEntry grp;
    grp.system_user = "cmsops";
    grp.groups = {"cms"};
    shell.set_user_map({joe, grp});
    vo.create_group("cms", dn("/O=grid/CN=Root"));
    vo.add_member("cms", kAnnStr, dn("/O=grid/CN=Root"));
  }
};

TEST_F(ShellFixture, MapsByDnAndByGroup) {
  EXPECT_EQ(shell.map_user(dn(kJoeStr)), "joe");
  EXPECT_EQ(shell.map_user(dn(kAnnStr)), "cmsops");  // via VO group
  EXPECT_FALSE(shell.map_user(dn(kEveStr)).has_value());
}

TEST_F(ShellFixture, UnmappedUserRefused) {
  EXPECT_THROW(shell.execute(dn(kEveStr), "ls"), AccessError);
  EXPECT_THROW(shell.cmd_info(dn(kEveStr)), AccessError);
}

TEST_F(ShellFixture, CmdInfoReturnsFileServicePath) {
  EXPECT_EQ(shell.cmd_info(dn(kJoeStr)), "/sandbox/joe");
  EXPECT_TRUE(std::filesystem::is_directory(shell.sandbox_dir("joe")));
}

TEST_F(ShellFixture, EchoAndPipelineOfCommands) {
  ShellResult r = shell.execute(dn(kJoeStr), "echo hello grid");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_EQ(r.out, "hello grid\n");

  shell.execute(dn(kJoeStr), "mkdir work");
  shell.execute(dn(kJoeStr), "cd work");
  EXPECT_EQ(shell.execute(dn(kJoeStr), "pwd").out, "/work\n");
  shell.execute(dn(kJoeStr), "touch a.txt");
  EXPECT_EQ(shell.execute(dn(kJoeStr), "ls").out, "a.txt\n");
}

TEST_F(ShellFixture, FileManipulationCommands) {
  shell.cmd_info(dn(kJoeStr));  // materialize the sandbox
  std::ofstream(shell.sandbox_dir("joe") + "/data.txt")
      << "alpha\nbeta\ngamma\n";
  EXPECT_EQ(shell.execute(dn(kJoeStr), "cat data.txt").out,
            "alpha\nbeta\ngamma\n");
  EXPECT_EQ(shell.execute(dn(kJoeStr), "wc data.txt").out,
            "3 3 17 data.txt\n");
  EXPECT_EQ(shell.execute(dn(kJoeStr), "grep beta data.txt").out, "beta\n");
  EXPECT_EQ(shell.execute(dn(kJoeStr), "head -n 1 data.txt").out, "alpha\n");
  EXPECT_EQ(shell.execute(dn(kJoeStr), "tail -n 1 data.txt").out, "gamma\n");
  shell.execute(dn(kJoeStr), "cp data.txt copy.txt");
  EXPECT_EQ(shell.execute(dn(kJoeStr), "cat copy.txt").out,
            "alpha\nbeta\ngamma\n");
  shell.execute(dn(kJoeStr), "mv copy.txt moved.txt");
  EXPECT_EQ(shell.execute(dn(kJoeStr), "grep moved.txt missing").exit_code, 1);
  shell.execute(dn(kJoeStr), "rm moved.txt");
  EXPECT_NE(shell.execute(dn(kJoeStr), "cat moved.txt").exit_code, 0);
}

TEST_F(ShellFixture, GrepNoMatchExitsNonzero) {
  shell.cmd_info(dn(kJoeStr));  // materialize the sandbox
  std::ofstream(shell.sandbox_dir("joe") + "/f.txt") << "only this\n";
  ShellResult r = shell.execute(dn(kJoeStr), "grep absent f.txt");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_TRUE(r.out.empty());
}

TEST_F(ShellFixture, SandboxEscapeRefused) {
  ShellResult up = shell.execute(dn(kJoeStr), "cat ../../../etc/passwd");
  EXPECT_NE(up.exit_code, 0);
  ShellResult abs = shell.execute(dn(kJoeStr), "ls /etc");
  EXPECT_NE(abs.exit_code, 0);  // "/etc" maps inside the sandbox: absent
  ShellResult cd = shell.execute(dn(kJoeStr), "cd ..");
  EXPECT_NE(cd.exit_code, 0);
}

TEST_F(ShellFixture, HiddenOverwriteFilesUnreachable) {
  // The file service's overwrite scratch files (a directory's spare holds
  // a replaced version of some file) are invisible and unreadable here.
  shell.cmd_info(dn(kJoeStr));  // materialize the sandbox
  std::ofstream(shell.sandbox_dir("joe") + "/.clarens-tmp.spare") << "old\n";
  EXPECT_NE(shell.execute(dn(kJoeStr), "cat .clarens-tmp.spare").exit_code, 0);
  EXPECT_NE(shell.execute(dn(kJoeStr), "cp .clarens-tmp.spare x").exit_code,
            0);
  EXPECT_NE(shell.execute(dn(kJoeStr), "mkdir .clarens-tmp.d").exit_code, 0);
  EXPECT_EQ(shell.execute(dn(kJoeStr), "ls").out.find(".clarens-tmp"),
            std::string::npos);
}

TEST_F(ShellFixture, UsersAreIsolated) {
  shell.execute(dn(kJoeStr), "touch joes-file");
  ShellResult ann = shell.execute(dn(kAnnStr), "ls");
  EXPECT_EQ(ann.out.find("joes-file"), std::string::npos);
  // id reports the mapped system user.
  EXPECT_EQ(shell.execute(dn(kAnnStr), "id").out, "uid=cmsops\n");
}

TEST_F(ShellFixture, SandboxReusedAcrossCommands) {
  shell.execute(dn(kJoeStr), "mkdir persistent");
  // "Re-used for subsequent commands" (§2.5): state survives.
  EXPECT_NE(shell.execute(dn(kJoeStr), "ls").out.find("persistent/"),
            std::string::npos);
}

TEST_F(ShellFixture, UnknownCommandFailsCleanly) {
  ShellResult r = shell.execute(dn(kJoeStr), "rm -rf --no-preserve-root /");
  // rm flags are ignored; "/" resolves to the sandbox root, which
  // remove_all refuses... ensure nothing above the sandbox was touched.
  EXPECT_TRUE(std::filesystem::exists(shell.sandbox_base()));
  ShellResult unknown = shell.execute(dn(kJoeStr), "sudo reboot");
  EXPECT_EQ(unknown.exit_code, 1);
  EXPECT_NE(unknown.err.find("command not found"), std::string::npos);
}

TEST_F(ShellFixture, FindListsRecursively) {
  shell.execute(dn(kJoeStr), "mkdir d1");
  shell.execute(dn(kJoeStr), "touch d1/inner.txt");
  ShellResult r = shell.execute(dn(kJoeStr), "find d1");
  EXPECT_NE(r.out.find("d1"), std::string::npos);
  EXPECT_NE(r.out.find("d1/inner.txt"), std::string::npos);
}

TEST_F(ShellFixture, LoadUserMapFromFile) {
  TempDir tmp2;
  std::string path = tmp2.path() + "/.clarens_user_map";
  std::ofstream(path) << "mapped ; " << kEveStr << " ; ;\n";
  shell.load_user_map_file(path);
  EXPECT_EQ(shell.map_user(dn(kEveStr)), "mapped");
  EXPECT_THROW(shell.load_user_map_file("/no/such/file"), SystemError);
}

}  // namespace
}  // namespace clarens::core
