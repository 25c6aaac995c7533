// A test writing its checkpoint to a fixed temp path: ctest runs each gtest
// case as its own process, and under `ctest -j` two cases using this path
// truncate or delete each other's file mid-test.
// lint-expect: temp-path
#include <string>

std::string checkpoint_path() { return "/tmp/recon_resume.ckpt"; }
