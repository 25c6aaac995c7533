// The sanctioned way for a test to name a file: scratch_path() puts it in a
// per-process mkdtemp directory, so concurrent ctest processes never share
// it. A temp path mentioned in a comment, "/tmp/recon_resume.ckpt", is not
// a literal and lints clean.
#include <string>

namespace recon::test {
std::string scratch_path(const std::string& name);
}

std::string checkpoint_path() { return recon::test::scratch_path("recon_resume.ckpt"); }
