// The fault-injecting suites route their flight-recorder dumps
// (obs.dump_dir) into one temp directory per suite, emptied when the
// suite starts, so no dump lands in the ctest working directory and each
// dump's ".incident<seq>" probe only sees this run's files.
#pragma once

#include <filesystem>
#include <string>

inline std::string fresh_dump_dir(const std::string& suite) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("ca_agcm_dumps_" + suite);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}
