/// \file whynot_shell.cpp
/// \brief Interactive why-not shell: load a database, run SQL, ask why-not
/// questions.
///
/// Commands (one per line; also works non-interactively via stdin):
///   use crime|imdb|gov|example     -- switch to a built-in database
///   load <relation> <file.csv>     -- load a CSV file as a relation
///   tables                          -- list relations
///   show <relation>                 -- print (a prefix of) a relation
///   sql <query>                     -- compile, canonicalize and run a query
///   tree                            -- print the current canonical tree
///   whynot <attr>:<value>[, ...]    -- explain why no such tuple appears
///       e.g.  whynot P.name:Hank, C.type:Car theft
///       variables: <attr>:?x plus conditions via `where x > 25`
///   where <var> <op> <value>        -- add a condition to the next whynot
///   baseline on|off                 -- also run the Why-Not baseline
///   \timeout <ms>                   -- bound sql/whynot wall time (0 = off);
///       a tripped deadline yields a flagged partial answer
///   help / quit
///
/// The shell never dies on a bad command: errors print as a Status plus a
/// usage hint and the prompt returns.

#include <iostream>
#include <memory>
#include <sstream>

#include "baseline/whynot_baseline.h"
#include "common/csv.h"
#include "common/strings.h"
#include "core/nedexplain.h"
#include "core/report.h"
#include "core/suggest.h"
#include "datasets/running_example.h"
#include "datasets/use_cases.h"
#include "sql/binder.h"

namespace {

using namespace ned;

struct ShellState {
  std::shared_ptr<Database> db;
  std::shared_ptr<QueryTree> tree;
  std::vector<CPred> pending_conds;
  bool run_baseline = true;
  /// Wall-clock budget applied to `sql` and `whynot`; 0 = unlimited.
  int64_t timeout_ms = 0;
};

/// Fresh deadline-armed context for one command; nullptr when unlimited.
std::unique_ptr<ExecContext> MakeContext(const ShellState& state) {
  if (state.timeout_ms <= 0) return nullptr;
  auto ctx = std::make_unique<ExecContext>();
  ctx->set_deadline_after_ms(state.timeout_ms);
  return ctx;
}

/// Usage hint appended to a command's error so a typo never strands the user.
const char* UsageFor(const std::string& cmd) {
  if (cmd == "use") return "use crime|imdb|gov|example";
  if (cmd == "load") return "load <relation> <file.csv>";
  if (cmd == "show") return "show <relation>";
  if (cmd == "sql") return "sql select ... from ... [where ...]";
  if (cmd == "where") return "where <var> <op> <value>   e.g. where x > 25";
  if (cmd == "whynot")
    return "whynot <attr>:<value>[, ...]   e.g. whynot P.name:Hank";
  if (cmd == "baseline") return "baseline on|off";
  if (cmd == "timeout" || cmd == "\\timeout")
    return "\\timeout <ms>   (0 disables)";
  return nullptr;
}

Result<Value> ParseShellValue(const std::string& text) {
  return Value::ParseLenient(Trim(text));
}

Result<CompareOp> ParseShellOp(const std::string& op) {
  if (op == "=" || op == "==") return CompareOp::kEq;
  if (op == "!=" || op == "<>") return CompareOp::kNe;
  if (op == "<") return CompareOp::kLt;
  if (op == "<=") return CompareOp::kLe;
  if (op == ">") return CompareOp::kGt;
  if (op == ">=") return CompareOp::kGe;
  return Status::ParseError("unknown comparison operator: " + op);
}

Status HandleWhynot(ShellState* state, const std::string& args) {
  if (state->tree == nullptr) {
    return Status::InvalidArgument("run `sql <query>` first");
  }
  if (Trim(args).empty()) {
    return Status::InvalidArgument("whynot needs at least one <attr>:<value>");
  }
  CTuple tc;
  for (const std::string& field : Split(args, ',')) {
    size_t colon = field.find(':');
    if (colon == std::string::npos) {
      return Status::ParseError("expected <attr>:<value> in: " + field);
    }
    std::string attr = Trim(field.substr(0, colon));
    std::string value = Trim(field.substr(colon + 1));
    if (!value.empty() && value[0] == '?') {
      tc.AddVar(attr, value.substr(1));
    } else {
      NED_ASSIGN_OR_RETURN(Value v, ParseShellValue(value));
      tc.AddField(Attribute::Parse(attr), CValue::Const(std::move(v)));
    }
  }
  for (const auto& pred : state->pending_conds) tc.Where(pred);
  state->pending_conds.clear();

  WhyNotQuestion question{tc};
  NedExplainOptions options;
  options.keep_tabq_dump = false;
  NED_ASSIGN_OR_RETURN(NedExplainEngine engine,
                       NedExplainEngine::Create(state->tree.get(),
                                                state->db.get(), options));
  std::unique_ptr<ExecContext> ctx = MakeContext(*state);
  NED_ASSIGN_OR_RETURN(NedExplainResult result,
                       engine.Explain(question, ctx.get()));
  std::cout << RenderExplainReport(engine, question, result);

  NED_ASSIGN_OR_RETURN(std::vector<ModificationHint> hints,
                       SuggestModifications(engine, result));
  if (!hints.empty()) {
    std::cout << "hints:\n";
    for (const auto& hint : hints) {
      std::cout << "  - " << hint.description << "\n";
    }
  }

  if (state->run_baseline) {
    NED_ASSIGN_OR_RETURN(
        WhyNotBaseline baseline,
        WhyNotBaseline::Create(state->tree.get(), state->db.get()));
    std::unique_ptr<ExecContext> base_ctx = MakeContext(*state);
    NED_ASSIGN_OR_RETURN(WhyNotBaselineResult base,
                         baseline.Explain(question, base_ctx.get()));
    std::cout << "Why-Not baseline: " << base.AnswerToString();
    if (!base.complete) {
      std::cout << "  (partial: " << base.limit_status.ToString() << ")";
    }
    std::cout << "\n";
  }
  return Status::OK();
}

Status HandleLine(ShellState* state, const std::string& line) {
  std::string trimmed = Trim(line);
  if (trimmed.empty() || trimmed[0] == '#') return Status::OK();
  size_t space = trimmed.find(' ');
  std::string cmd = ToLower(trimmed.substr(0, space));
  std::string args =
      space == std::string::npos ? "" : Trim(trimmed.substr(space + 1));

  if (cmd == "use") {
    if (args == "example") {
      NED_ASSIGN_OR_RETURN(Database db, BuildRunningExampleDb());
      state->db = std::make_shared<Database>(std::move(db));
    } else {
      NED_ASSIGN_OR_RETURN(UseCaseRegistry registry, UseCaseRegistry::Build());
      if (args != "crime" && args != "imdb" && args != "gov") {
        return Status::InvalidArgument("unknown database: " + args);
      }
      state->db = std::make_shared<Database>(registry.database(args));
    }
    state->tree = nullptr;
    std::cout << "database " << args << ":\n" << state->db->ToString();
    return Status::OK();
  }
  if (cmd == "load") {
    size_t sep = args.find(' ');
    if (sep == std::string::npos) {
      return Status::InvalidArgument("usage: load <relation> <file.csv>");
    }
    if (state->db == nullptr) state->db = std::make_shared<Database>();
    std::string relation = args.substr(0, sep);
    NED_ASSIGN_OR_RETURN(std::string csv, ReadFile(Trim(args.substr(sep + 1))));
    NED_RETURN_NOT_OK(state->db->LoadCsv(relation, csv));
    std::cout << "loaded " << relation << "\n";
    return Status::OK();
  }
  if (cmd == "tables") {
    if (state->db == nullptr) return Status::InvalidArgument("no database");
    std::cout << state->db->ToString();
    return Status::OK();
  }
  if (cmd == "show") {
    if (state->db == nullptr) return Status::InvalidArgument("no database");
    NED_ASSIGN_OR_RETURN(const Relation* rel, state->db->GetRelation(args));
    std::cout << rel->ToString();
    return Status::OK();
  }
  if (cmd == "sql") {
    if (state->db == nullptr) return Status::InvalidArgument("no database");
    NED_ASSIGN_OR_RETURN(QueryTree tree, CompileSql(args, *state->db));
    state->tree = std::make_shared<QueryTree>(std::move(tree));
    std::cout << "canonical tree:\n" << state->tree->ToString();
    // Evaluate and show the result, under the session timeout if one is set.
    std::unique_ptr<ExecContext> ctx = MakeContext(*state);
    NED_ASSIGN_OR_RETURN(QueryInput input,
                         QueryInput::Build(*state->tree, *state->db, ctx.get()));
    Evaluator evaluator(state->tree.get(), &input, ctx.get());
    Result<const Block*> eval = evaluator.EvalAll();
    if (!eval.ok()) {
      if (IsResourceLimit(eval.status())) {
        std::cout << "evaluation stopped: " << eval.status().ToString()
                  << " (raise or disable with \\timeout)\n";
        return Status::OK();
      }
      return eval.status();
    }
    const Block* out = *eval;
    std::cout << "result (" << out->size() << " tuples):\n";
    for (size_t row = 0; row < out->size(); ++row) {
      if (row == 10) {
        std::cout << "  ...\n";
        break;
      }
      std::cout << "  " << out->values(row).ToString(state->tree->target_type())
                << "\n";
    }
    return Status::OK();
  }
  if (cmd == "tree") {
    if (state->tree == nullptr) return Status::InvalidArgument("no query yet");
    std::cout << state->tree->ToString();
    return Status::OK();
  }
  if (cmd == "where") {
    std::istringstream in(args);
    std::string var, op, value;
    in >> var >> op;
    std::getline(in, value);
    NED_ASSIGN_OR_RETURN(CompareOp cop, ParseShellOp(op));
    NED_ASSIGN_OR_RETURN(Value v, ParseShellValue(value));
    state->pending_conds.push_back(CPred::VsConst(var, cop, std::move(v)));
    std::cout << "condition queued: " << state->pending_conds.back().ToString()
              << "\n";
    return Status::OK();
  }
  if (cmd == "whynot") return HandleWhynot(state, args);
  if (cmd == "timeout" || cmd == "\\timeout") {
    int64_t ms = 0;
    std::istringstream in(args);
    if (!(in >> ms) || ms < 0) {
      return Status::InvalidArgument("timeout needs a non-negative millisecond "
                                     "count");
    }
    state->timeout_ms = ms;
    if (ms == 0) {
      std::cout << "timeout disabled\n";
    } else {
      std::cout << "timeout set to " << ms << " ms; long runs now return "
                << "flagged partial answers\n";
    }
    return Status::OK();
  }
  if (cmd == "baseline") {
    state->run_baseline = args != "off";
    std::cout << "baseline " << (state->run_baseline ? "on" : "off") << "\n";
    return Status::OK();
  }
  if (cmd == "help") {
    std::cout
        << "commands: use <db> | load <rel> <csv> | tables | show <rel> | "
           "sql <query> | tree | where <var> <op> <val> | whynot <a>:<v>,... "
           "| baseline on/off | \\timeout <ms> | quit\n"
           "  \\timeout bounds sql/whynot wall time; a tripped deadline "
           "yields a flagged partial answer instead of an error\n";
    return Status::OK();
  }
  if (cmd == "quit" || cmd == "exit") {
    return Status(StatusCode::kUnsupported, "__quit__");
  }
  return Status::InvalidArgument("unknown command: " + cmd + " (try help)");
}

}  // namespace

int main() {
  ShellState state;
  std::cout << "nedexplain why-not shell -- `help` for commands, `use "
               "example` to start\n";
  std::string line;
  while (true) {
    std::cout << "> " << std::flush;
    if (!std::getline(std::cin, line)) break;
    ned::Status status = HandleLine(&state, line);
    if (!status.ok()) {
      if (status.message() == "__quit__") break;
      // Errors never kill the shell: print the status and, when the command
      // is known, how to invoke it correctly.
      std::cout << status.ToString() << "\n";
      std::string t = ned::Trim(line);
      const char* usage = UsageFor(ned::ToLower(t.substr(0, t.find(' '))));
      if (usage != nullptr) std::cout << "  usage: " << usage << "\n";
    }
  }
  std::cout << "bye\n";
  return 0;
}
