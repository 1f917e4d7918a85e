// Parser for the frontend language (see ast.hpp for the grammar sketch).
// Reuses the shared lexer in imperative mode and the shared expression
// parser for right-hand sides and conditions.
#pragma once

#include <cstddef>
#include <string_view>

#include "gammaflow/frontend/ast.hpp"

namespace gammaflow::frontend {

/// Deepest block nesting (if/while/for bodies) the parser accepts; the
/// parser and the graph compiler recurse once per level, so deeper input
/// is a ParseError rather than a stack overflow. Expressions inside are
/// bounded separately by expr::kMaxExprDepth.
inline constexpr std::size_t kMaxBlockDepth = 256;

/// Throws ParseError with source location on malformed input.
[[nodiscard]] ProgramAst parse_source(std::string_view source);

}  // namespace gammaflow::frontend
