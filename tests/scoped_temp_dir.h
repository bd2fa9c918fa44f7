/**
 * @file
 * Per-test scratch directories for tests that write files.
 *
 * gtest_discover_tests runs every TEST in its own process, and
 * `ctest -j` runs those processes concurrently from the same build
 * directory, so two tests (or two processes of one fixture) that
 * write the same relative path race. Each ScopedTempDir is a fresh
 * mkdtemp() directory under the system temp dir, removed with its
 * contents when it goes out of scope. Tests that drive CLI binaries
 * with relative artifact names enter() the directory instead of
 * spelling out every path; the old working directory comes back on
 * destruction.
 */

#ifndef PAD_TESTS_SCOPED_TEMP_DIR_H
#define PAD_TESTS_SCOPED_TEMP_DIR_H

#include <cstdlib>
#include <filesystem>
#include <string>
#include <system_error>

namespace pad::test {

class ScopedTempDir
{
  public:
    ScopedTempDir()
    {
        std::string tmpl =
            (std::filesystem::temp_directory_path() / "pad_test_XXXXXX")
                .string();
        if (::mkdtemp(tmpl.data()) != nullptr)
            dir_ = tmpl;
    }

    ~ScopedTempDir()
    {
        std::error_code ec;
        if (!previousCwd_.empty())
            std::filesystem::current_path(previousCwd_, ec);
        if (!dir_.empty())
            std::filesystem::remove_all(dir_, ec);
    }

    ScopedTempDir(const ScopedTempDir &) = delete;
    ScopedTempDir &operator=(const ScopedTempDir &) = delete;

    /** False when mkdtemp() failed; every path() is then unusable. */
    bool ok() const { return !dir_.empty(); }

    /** @p name inside the directory. */
    std::string path(const std::string &name) const
    {
        return dir_ + "/" + name;
    }

    /** Make the directory the working directory until destruction. */
    bool enter()
    {
        std::error_code ec;
        previousCwd_ = std::filesystem::current_path(ec);
        if (ec || !ok())
            return false;
        std::filesystem::current_path(dir_, ec);
        return !ec;
    }

  private:
    std::string dir_;
    std::filesystem::path previousCwd_;
};

} // namespace pad::test

#endif // PAD_TESTS_SCOPED_TEMP_DIR_H
