#ifndef CPD_UTIL_STRING_UTIL_H_
#define CPD_UTIL_STRING_UTIL_H_

/// \file string_util.h
/// Small string helpers used by the text pipeline, file I/O and address
/// flags.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace cpd {

/// Splits on a single character; consecutive delimiters yield empty tokens
/// unless skip_empty is set.
std::vector<std::string> Split(std::string_view text, char delimiter,
                               bool skip_empty = false);

/// Splits on any whitespace run; never yields empty tokens.
std::vector<std::string> SplitWhitespace(std::string_view text);

/// Joins parts with the separator between them.
std::string Join(const std::vector<std::string>& parts, std::string_view separator);

/// Removes leading and trailing ASCII whitespace.
std::string_view Trim(std::string_view text);

/// ASCII lowercase copy.
std::string ToLower(std::string_view text);

bool StartsWith(std::string_view text, std::string_view prefix);
bool EndsWith(std::string_view text, std::string_view suffix);

/// A numeric IPv4 endpoint.
struct Ipv4Endpoint {
  uint32_t address = 0;  ///< Network byte order (in_addr::s_addr).
  uint16_t port = 0;
};

/// Parses "A.B.C.D:PORT": a numeric IPv4 host (no DNS lookup) and a
/// decimal port <= 65535. The one address grammar of the distributed
/// executor: config validation and the connecting socket both use it.
/// InvalidArgument naming the bad part otherwise.
StatusOr<Ipv4Endpoint> ParseIpv4Endpoint(std::string_view addr);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* format, ...) __attribute__((format(printf, 1, 2)));

}  // namespace cpd

#endif  // CPD_UTIL_STRING_UTIL_H_
