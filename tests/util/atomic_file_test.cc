#include "src/util/atomic_file.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

namespace manet::util {
namespace {

namespace fs = std::filesystem;

std::string slurp(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

fs::path tmpDir(const char* name) {
  const fs::path dir = fs::temp_directory_path() / name;
  fs::remove_all(dir);
  return dir;
}

TEST(AtomicFileTest, WritesContentAndCreatesParents) {
  const fs::path dir = tmpDir("manet_atomic_parents");
  const fs::path target = dir / "a" / "b" / "out.json";
  ASSERT_TRUE(atomicWriteFile(target.string(), "{\"x\":1}"));
  EXPECT_EQ(slurp(target), "{\"x\":1}");
  fs::remove_all(dir);
}

TEST(AtomicFileTest, OverwriteReplacesWholeFile) {
  const fs::path dir = tmpDir("manet_atomic_overwrite");
  const fs::path target = dir / "out.txt";
  ASSERT_TRUE(atomicWriteFile(target.string(), "long old content here"));
  ASSERT_TRUE(atomicWriteFile(target.string(), "short"));
  EXPECT_EQ(slurp(target), "short");
  fs::remove_all(dir);
}

TEST(AtomicFileTest, LeavesNoTemporaryBehind) {
  const fs::path dir = tmpDir("manet_atomic_tmpfiles");
  ASSERT_TRUE(atomicWriteFile((dir / "out.txt").string(), "x"));
  std::size_t entries = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    (void)e;
    ++entries;
  }
  EXPECT_EQ(entries, 1u);  // only the final file, no .tmp.<pid> residue
  fs::remove_all(dir);
}

TEST(AtomicFileTest, FailsOnUnwritableTarget) {
  const fs::path dir = tmpDir("manet_atomic_unwritable");
  // A regular file where a parent directory is needed: creation must fail
  // cleanly, not crash or leave partial state.
  ASSERT_TRUE(atomicWriteFile((dir / "blocker").string(), "x"));
  EXPECT_FALSE(
      atomicWriteFile((dir / "blocker" / "child.txt").string(), "data"));
  fs::remove_all(dir);
}

}  // namespace
}  // namespace manet::util
