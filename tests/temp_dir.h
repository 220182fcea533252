#ifndef IBSEG_TESTS_TEMP_DIR_H_
#define IBSEG_TESTS_TEMP_DIR_H_

// The one way a test makes scratch space on disk. Every directory lives
// under gtest's temp root and carries the process id, so two test runs
// (two builds, or ctest -j running two binaries) never share one; and it
// starts empty, so nothing an earlier run left under the same name — a
// log, a manifest, an old generation's snapshot — can leak into a test.

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>

namespace ibseg {

/// `<gtest temp dir>/ibseg_<name>_<pid>`, emptied and created. A test
/// that needs a file path names a file inside it.
inline std::string fresh_temp_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/ibseg_" + name + "_" +
                          std::to_string(static_cast<long>(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

}  // namespace ibseg

#endif  // IBSEG_TESTS_TEMP_DIR_H_
