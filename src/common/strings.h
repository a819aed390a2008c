/// \file strings.h
/// \brief Small string utilities shared across the library.

#ifndef NED_COMMON_STRINGS_H_
#define NED_COMMON_STRINGS_H_

#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace ned {

/// Splits `s` on `sep`, keeping empty fields.
std::vector<std::string> Split(std::string_view s, char sep);

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Strips ASCII whitespace from both ends.
std::string Trim(std::string_view s);

/// ASCII lower-casing.
std::string ToLower(std::string_view s);

/// ASCII upper-casing.
std::string ToUpper(std::string_view s);

/// True if `s` starts with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// Case-insensitive ASCII equality.
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

/// Whitespace-collapsed, case-folded (outside single-quoted string literals)
/// SQL text, with trailing semicolons dropped. Two spellings of one query --
/// "SELECT  R.v FROM R" vs "select r.v from r" -- normalize identically;
/// string literals keep their exact bytes and case.
std::string NormalizeSqlText(std::string_view sql);

/// SQL text that has been through NormalizeSqlText. The answer tier's
/// content key (MakeDurableAnswerKey) takes this type, so it can never be
/// built from unnormalized text; the implicit conversions normalize raw
/// text on the way in.
class NormalizedSql {
 public:
  NormalizedSql() = default;
  NormalizedSql(const std::string& sql)  // NOLINT(runtime/explicit)
      : text_(NormalizeSqlText(sql)) {}
  NormalizedSql(const char* sql)  // NOLINT(runtime/explicit)
      : text_(NormalizeSqlText(sql)) {}

  const std::string& text() const { return text_; }

 private:
  std::string text_;
};

/// Variadic streaming concatenation, e.g. StrCat("m", 3, " picky").
template <typename... Args>
std::string StrCat(const Args&... args) {
  std::ostringstream os;
  (os << ... << args);
  return os.str();
}

/// Pads or truncates `s` to exactly `width` columns (left-aligned).
std::string PadRight(std::string s, size_t width);

/// Pads `s` on the left to at least `width` columns.
std::string PadLeft(std::string s, size_t width);

/// Renders a monospace table: `header` then `rows`; column widths are derived
/// from content. Used by benches and examples to print paper-style tables.
std::string RenderTable(const std::vector<std::string>& header,
                        const std::vector<std::vector<std::string>>& rows);

}  // namespace ned

#endif  // NED_COMMON_STRINGS_H_
