// Error conventions and invariant checks for the repository.
//
// Every layer speaks POSIX: `int` / `ssize_t` returns where negative values are
// -errno, exactly like kernel file-system code.
#ifndef SRC_COMMON_STATUS_H_
#define SRC_COMMON_STATUS_H_

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace common {
namespace internal {
[[noreturn]] inline void CheckFailed(const char* file, int line, const char* expr) {
  std::fprintf(stderr, "CHECK failed at %s:%d: %s\n", file, line, expr);
  std::abort();
}
}  // namespace internal

}  // namespace common

// Invariant checks. These guard programmer errors (not user input) and stay enabled in
// release builds: a simulated storage stack that silently corrupts state is worthless.
#define SPLITFS_CHECK(expr)                                          \
  do {                                                               \
    if (!(expr)) {                                                   \
      ::common::internal::CheckFailed(__FILE__, __LINE__, #expr);    \
    }                                                                \
  } while (0)

#define SPLITFS_CHECK_OK(expr)                                       \
  do {                                                               \
    auto _splitfs_check_rc = (expr);                                 \
    if (_splitfs_check_rc < 0) {                                     \
      ::common::internal::CheckFailed(__FILE__, __LINE__, #expr);    \
    }                                                                \
  } while (0)

#endif  // SRC_COMMON_STATUS_H_
