(** AST-grounded determinism & effect-discipline analyzer for the
    simulator (the engine behind [scripts/lint_purity.sh]).

    Every tree that runs inside a simulation —
    [lib/{sim,core,heap,collectors,obs,util,runtime,experiments,workload}]
    — must be a pure function of its inputs: the schedule-space explorer
    replays runs bit-for-bit, the [-j N] fan-out runs one simulation per
    domain, and cross-collector diffs assume byte-identical traces.  The
    old enforcement was a grep over source text, which cannot see
    through [module R = Random] or [let open Unix in ...].  This analyzer
    walks the parsetree ([compiler-libs]) with a per-file resolved-path
    environment instead.  Each of those trees is linted directly, so a
    helper that launders a host effect is caught where it touches the
    primitive.

    Rules (see DESIGN.md §10 for the full catalog):

    - {b R1} — forbidden host-effect primitives ([Unix.*], [Random.*],
      [Sys.time]/[getenv], [print*], [Printf.printf]/[eprintf],
      [Format.std_formatter], [Hashtbl.hash], ...) reached through any
      spelling: direct, aliased ([module R = Random]), opened ([open] /
      [let open]), [Stdlib]-qualified, or smuggled into a functor as an
      argument.  Locally-defined modules and toplevel values that shadow
      a forbidden name are recognized and stay silent.
    - {b R2} — toplevel mutable-cell creation ([ref], [Atomic.make],
      [Hashtbl.create], [Buffer.create], [Queue.create], [Stack.create],
      [Array.make/init], [Bytes.create], [Util.Vec.create]) outside a
      [Domain.DLS.new_key] initializer, including cells hidden inside
      toplevel [let () = ...] initializers, [lazy] blocks, and nested
      modules.  A cell minted inside a function body is per-call state
      and fine.
    - {b R3} is retired (it was a call-graph taint pass for trees that
      were not linted directly); the name is not reused.
    - {b R4} — DLS-handle-caching discipline: [Access.hooks ()] /
      [Gobj.uid_source ()] resolve a handle into {e this domain's} DLS
      slot and may only be bound inside function bodies (run-threaded
      state); caching one at module toplevel aliases the linting
      domain's slot into every other domain's runs.
    - {b R5} — allocation-free object graph: the type [Gobj.t option]
      may not appear in [lib/heap] or [lib/collectors] (annotations,
      record/variant fields, signatures).  Reference slots use the
      unboxed {!Gobj.null} sentinel instead — an option would re-box
      every read of the simulated heap's hot path on the host minor
      heap.  Other directories (e.g. the analysis verifier) may still
      use options.
    - {b R6} — no polymorphic comparison on hot paths: Stdlib's [min],
      [max] and [compare] may not be used in
      [lib/{sim,core,heap,collectors,runtime,workload}].  They go
      through [compare_val] in the runtime on every call, even on ints;
      the [Int.]/[Float.]/[String.] versions compile to a compare.  A
      parameter or local binding of the same name shadows them and
      stays silent.

    Allowlisting is in-source: [[@gcsim.allow "reason"]] on an
    expression, [[@@gcsim.allow "reason"]] on a binding or module, or
    [[@@@gcsim.allow "reason"]] for a whole file.  An attribute that
    suppresses nothing is itself an error ("stale allow"), mirroring the
    old stale-allowlist check, so paid-off debt is retired.

    R1, R2 and R4 apply to every file; R5 and R6 by directory.
    Diagnostics are [file:line:col [rule] message]. *)

(* ------------------------------------------------------------------ *)
(* Diagnostics.                                                        *)

type rule = R1 | R2 | R4 | R5 | R6 | Parse | Allow

let rule_to_string = function
  | R1 -> "R1"
  | R2 -> "R2"
  | R4 -> "R4"
  | R5 -> "R5"
  | R6 -> "R6"
  | Parse -> "parse"
  | Allow -> "allow"

let rule_of_string = function
  | "R1" -> Some R1
  | "R2" -> Some R2
  | "R4" -> Some R4
  | "R5" -> Some R5
  | "R6" -> Some R6
  | "parse" -> Some Parse
  | "allow" -> Some Allow
  | _ -> None

type diag = {
  file : string;
  line : int;
  col : int;
  rule : rule;
  message : string;
}

let diag_to_string d =
  Printf.sprintf "%s:%d:%d [%s] %s" d.file d.line d.col
    (rule_to_string d.rule) d.message

(* ------------------------------------------------------------------ *)
(* Rule tables.                                                        *)

(* Wholly-forbidden module roots: any use, alias, open or functor
   argument of these is host nondeterminism. *)
let forbidden_modules = [ [ "Unix" ]; [ "Random" ] ]

(* Forbidden exact paths (after alias/open/Stdlib resolution). *)
let forbidden_values =
  [
    [ "Sys"; "time" ];
    [ "Sys"; "getenv" ];
    [ "Sys"; "getenv_opt" ];
    [ "Sys"; "command" ];
    [ "Hashtbl"; "hash" ];
    [ "Hashtbl"; "seeded_hash" ];
    [ "Hashtbl"; "hash_param" ];
    [ "Printf"; "printf" ];
    [ "Printf"; "eprintf" ];
    [ "Format"; "printf" ];
    [ "Format"; "eprintf" ];
    [ "Format"; "std_formatter" ];
    [ "Format"; "err_formatter" ];
    [ "print_endline" ];
    [ "print_string" ];
    [ "print_newline" ];
    [ "print_int" ];
    [ "print_char" ];
    [ "print_float" ];
    [ "prerr_endline" ];
    [ "prerr_string" ];
    [ "prerr_newline" ];
  ]

(* R6: Stdlib's polymorphic comparisons, and the modules whose [open]
   brings a monomorphic version of the same name into scope. *)
let poly_compare_values = [ "min"; "max"; "compare" ]

let monomorphic_compare_modules =
  [ "Int"; "Float"; "String"; "Bool"; "Char"; "Int32"; "Int64"; "Nativeint" ]

(* Variables a pattern binds. *)
let bound_names (p : Parsetree.pattern) =
  let names = ref [] in
  let pat (self : Ast_iterator.iterator) (p : Parsetree.pattern) =
    (match p.ppat_desc with
    | Ppat_var { txt; _ } | Ppat_alias (_, { txt; _ }) -> names := txt :: !names
    | _ -> ());
    Ast_iterator.default_iterator.pat self p
  in
  let it = { Ast_iterator.default_iterator with pat } in
  it.pat it p;
  !names

(* R2: mutable-cell constructors, matched on their last two components
   (or bare [ref]).  Matching is on the resolved path's suffix so both
   [Hashtbl.create] and [Stdlib.Hashtbl.create] hit, and project cells
   ([Util.Vec.create]) are covered wherever the [Util] wrapper is
   visible. *)
let cell_creators =
  [
    [ "ref" ];
    [ "Hashtbl"; "create" ];
    [ "Queue"; "create" ];
    [ "Stack"; "create" ];
    [ "Buffer"; "create" ];
    [ "Atomic"; "make" ];
    [ "Array"; "make" ];
    [ "Array"; "create" ];
    [ "Array"; "init" ];
    [ "Array"; "make_matrix" ];
    [ "Bytes"; "create" ];
    [ "Bytes"; "make" ];
    [ "Weak"; "create" ];
    [ "Vec"; "create" ];
  ]

(* R4: DLS-handle resolvers whose result must stay in run-threaded
   state; matched on the last two components of the resolved path. *)
let dls_handle_resolvers =
  [ [ "Access"; "hooks" ]; [ "Gobj"; "uid_source" ]; [ "Gobj"; "uids" ] ]

let path_to_string p = String.concat "." p

let list_suffix ~suffix l =
  let ls = List.length suffix and ll = List.length l in
  ls <= ll
  &&
  let rec drop k = function x when k = 0 -> x | _ :: tl -> drop (k - 1) tl | [] -> [] in
  drop (ll - ls) l = suffix

(* ------------------------------------------------------------------ *)
(* Per-file analysis.                                                  *)

type scope = {
  s_reason : string;
  s_file : string;
  s_line : int;
  s_col : int;
  mutable s_used : bool;
}

(* How a module head resolves in the current environment. *)
type binding = Alias of string list | Local

type source = {
  src_file : string;
  src_text : string;
  src_modpath : string list;  (** e.g. [["Heap"; "Region"]] *)
  src_r5 : bool;
      (** in the sentinel-only trees ([lib/heap], [lib/collectors]):
          R5 forbids [Gobj.t option] here *)
  src_r6 : bool;
      (** in the hot-path trees: R6 forbids Stdlib's polymorphic [min],
          [max] and [compare] here *)
}

type acc = { mutable diags : diag list; mutable scopes : scope list }

open Parsetree

let pos_of (loc : Location.t) =
  (loc.loc_start.pos_lnum, loc.loc_start.pos_cnum - loc.loc_start.pos_bol)

let allow_of_attrs (acc : acc) ~file (attrs : attributes) =
  List.fold_left
    (fun found (a : attribute) ->
      if a.attr_name.txt <> "gcsim.allow" then found
      else
        let line, col = pos_of a.attr_loc in
        match a.attr_payload with
        | PStr
            [
              {
                pstr_desc =
                  Pstr_eval
                    ({ pexp_desc = Pexp_constant (Pconst_string (reason, _, _)); _ }, _);
                _;
              };
            ] ->
            let s = { s_reason = reason; s_file = file; s_line = line; s_col = col; s_used = false } in
            acc.scopes <- s :: acc.scopes;
            Some s
        | _ ->
            acc.diags <-
              {
                file;
                line;
                col;
                rule = Allow;
                message = "[@gcsim.allow] needs a reason string: [@gcsim.allow \"why\"]";
              }
              :: acc.diags;
            found)
    None attrs

(* Analyze one parsed source file, appending into [acc]. *)
let analyze_structure (acc : acc) (src : source) (str : structure) =
  let file = src.src_file in
  (* Mutable walk state.  Scoped constructs save/restore it. *)
  let aliases : (string * binding) list ref = ref [] in
  let opens : string list list ref = ref [] in
  let toplevel_values : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let toplevel = ref true in
  let allow_stack : scope list ref = ref [] in

  let emit loc rule message =
    match !allow_stack with
    | s :: _ -> s.s_used <- true
    | [] ->
        let line, col = pos_of loc in
        acc.diags <- { file; line; col; rule; message } :: acc.diags
  in
  (* Names bound by parameters and local lets in scope; only the ones R6
     cares about are kept. *)
  let locals : string list ref = ref [] in

  (* Resolve a module path head through aliases; returns [Local] when it
     names a locally-defined (shadowing) module. *)
  let resolve_module_path parts =
    let parts = match parts with "Stdlib" :: rest when rest <> [] -> rest | p -> p in
    match parts with
    | [] -> Alias []
    | head :: rest -> (
        match List.assoc_opt head !aliases with
        | Some Local -> Local
        | Some (Alias target) -> (
            match target @ rest with
            | "Stdlib" :: r when r <> [] -> Alias r
            | p -> Alias p)
        | None -> Alias parts)
  in

  let forbidden_module_of parts =
    match resolve_module_path parts with
    | Local -> None
    | Alias p ->
        if List.exists (fun m -> p <> [] && List.hd p = List.hd m) forbidden_modules
        then Some p
        else None
  in

  (* All resolved candidates for a value path: the alias-resolved path
     itself plus each open prefix applied to the as-written path. *)
  let value_candidates parts =
    match resolve_module_path parts with
    | Local -> `Local parts
    | Alias primary ->
        let via_opens =
          List.filter_map
            (fun o ->
              match resolve_module_path o with
              | Local -> None
              | Alias o -> Some (o @ parts))
            !opens
        in
        `Resolved (primary :: via_opens)
  in

  let is_shadowed_value parts =
    match parts with
    | [ name ] -> Hashtbl.mem toplevel_values name
    | _ -> false
  in

  (* R1 check of one value identifier. *)
  let check_ident lid loc =
    let parts = Longident.flatten lid in
    if not (is_shadowed_value parts) then
      match value_candidates parts with
      | `Local _ -> ()
      | `Resolved cands ->
          let hit =
            List.find_opt
              (fun c ->
                List.exists (fun m -> c <> [] && List.hd c = List.hd m) forbidden_modules
                || List.mem c forbidden_values)
              cands
          in
          match hit with
          | Some c ->
              let spelled = path_to_string parts in
              let resolved = path_to_string c in
              let via =
                if spelled = resolved then ""
                else Printf.sprintf " (written %s)" spelled
              in
              emit loc R1
                (Printf.sprintf "host-effect primitive %s%s" resolved via)
          | None -> ()
  in

  (* R6 check of one value identifier: Stdlib's polymorphic [min],
     [max] or [compare], unless shadowed or reached through an [open] of
     a module with a monomorphic version. *)
  let check_poly_compare lid loc =
    let parts = Longident.flatten lid in
    if
      src.src_r6
      && (not (is_shadowed_value parts))
      && not (match parts with [ n ] -> List.mem n !locals | _ -> false)
    then
      match value_candidates parts with
      | `Local _ -> ()
      | `Resolved [] -> ()
      | `Resolved (primary :: via_opens) -> (
          match primary with
          | [ name ] when List.mem name poly_compare_values ->
              let monomorphic_open =
                List.exists
                  (function
                    | [ m; _ ] -> List.mem m monomorphic_compare_modules
                    | _ -> false)
                  via_opens
              in
              if not monomorphic_open then
                emit loc R6
                  (Printf.sprintf
                     "polymorphic Stdlib %s on a hot path — it calls \
                      compare_val on every use; use Int.%s or Float.%s%s"
                     name name name
                     (if name = "compare" then " (String.compare on strings)"
                      else ""))
          | _ -> ())
  in

  (* R2/R4 check of a toplevel application head. *)
  let check_toplevel_apply lid loc =
    let parts = Longident.flatten lid in
    if not (is_shadowed_value parts) then
      match value_candidates parts with
      | `Local _ -> ()
      | `Resolved cands ->
          let matches table =
            List.exists
              (fun c ->
                List.exists
                  (fun suffix ->
                    match suffix with
                    | [ _ ] -> c = suffix
                    | _ -> list_suffix ~suffix c)
                  table)
              cands
          in
          if matches dls_handle_resolvers then
            emit loc R4
              (Printf.sprintf
                 "DLS handle %s () cached at module toplevel — it aliases this \
                  domain's slot into every domain's runs; bind it inside a \
                  function and thread it through run state (e.g. Heap_impl.t)"
                 (path_to_string parts))
          else if matches cell_creators then
            emit loc R2
              (Printf.sprintf
                 "toplevel mutable cell (%s) outside Domain.DLS.new_key — \
                  cross-run state must live in run-threaded state or a DLS slot"
                 (path_to_string parts))
  in

  let with_saved_env f =
    let a = !aliases and o = !opens in
    f ();
    aliases := a;
    opens := o
  in
  let with_allow allow f =
    match allow with
    | None -> f ()
    | Some s ->
        allow_stack := s :: !allow_stack;
        f ();
        allow_stack := List.tl !allow_stack
  in
  let with_toplevel v f =
    let t = !toplevel in
    toplevel := v;
    f ();
    toplevel := t
  in
  let with_locals names f =
    match List.filter (fun n -> List.mem n poly_compare_values) names with
    | [] -> f ()
    | shadows ->
        let l = !locals in
        locals := shadows @ l;
        f ();
        locals := l
  in

  (* R5: a [Gobj.t option] anywhere a type can appear — annotation,
     record or variant field, arrow component — re-boxes the object
     graph's reference slots on the host minor heap; the unboxed
     {!Gobj.null} sentinel is the only legal "absent" in the
     sentinel-only trees. *)
  let typ (self : Ast_iterator.iterator) (ct : core_type) =
    let allow = allow_of_attrs acc ~file ct.ptyp_attributes in
    with_allow allow (fun () ->
        (if src.src_r5 then
           match ct.ptyp_desc with
           | Ptyp_constr ({ txt = outer; loc }, [ arg ])
             when (let is_option p =
                     p = [ "option" ] || list_suffix ~suffix:[ "Option"; "t" ] p
                   in
                   let p = Longident.flatten outer in
                   is_option p
                   ||
                   (* [module O = Option] must not hide the box. *)
                   match resolve_module_path p with
                   | Alias q -> is_option q
                   | Local -> false)
             -> (
               match arg.ptyp_desc with
               | Ptyp_constr ({ txt = inner; _ }, _) ->
                   let parts = Longident.flatten inner in
                   let is_gobj_t =
                     list_suffix ~suffix:[ "Gobj"; "t" ] parts
                     || (parts = [ "t" ]
                        && list_suffix ~suffix:[ "Gobj" ] src.src_modpath)
                   in
                   if is_gobj_t then
                     emit loc R5
                       "Gobj.t option in the sentinel-only trees \
                        (lib/heap, lib/collectors) — reference slots use \
                        the unboxed Gobj.null sentinel; an option boxes \
                        every read of the heap hot path on the host \
                        minor heap"
               | _ -> ())
           | _ -> ());
        Ast_iterator.default_iterator.typ self ct)
  in

  let rec module_expr (self : Ast_iterator.iterator) (me : module_expr) =
    match me.pmod_desc with
    | Pmod_apply (fn, arg) ->
        (match arg.pmod_desc with
        | Pmod_ident { txt; loc } -> (
            match forbidden_module_of (Longident.flatten txt) with
            | Some p ->
                emit loc R1
                  (Printf.sprintf
                     "host-effect module %s passed as functor argument"
                     (path_to_string p))
            | None -> ())
        | _ -> ());
        module_expr self fn;
        module_expr self arg
    | Pmod_structure _ ->
        with_saved_env (fun () -> Ast_iterator.default_iterator.module_expr self me)
    | Pmod_functor (param, body) ->
        with_saved_env (fun () ->
            (match param with
            | Named ({ txt = Some name; _ }, _) -> aliases := (name, Local) :: !aliases
            | _ -> ());
            module_expr self body)
    | _ -> Ast_iterator.default_iterator.module_expr self me
  in

  let handle_open (self : Ast_iterator.iterator) (od : open_declaration) =
    match od.popen_expr.pmod_desc with
    | Pmod_ident { txt; loc } -> (
        let parts = Longident.flatten txt in
        match forbidden_module_of parts with
        | Some p ->
            emit loc R1
              (Printf.sprintf "open of host-effect module %s" (path_to_string p))
        | None -> opens := parts :: !opens)
    | _ -> module_expr self od.popen_expr
  in

  let bind_module name (me : module_expr) =
    match name with
    | None -> ()
    | Some name -> (
        let rec underlying (me : module_expr) =
          match me.pmod_desc with
          | Pmod_constraint (m, _) -> underlying m
          | d -> d
        in
        match underlying me with
        | Pmod_ident { txt; loc } -> (
            let parts = Longident.flatten txt in
            match forbidden_module_of parts with
            | Some p ->
                emit loc R1
                  (Printf.sprintf "alias of host-effect module %s"
                     (path_to_string p));
                aliases := (name, Alias p) :: !aliases
            | None -> (
                match resolve_module_path parts with
                | Local -> aliases := (name, Local) :: !aliases
                | Alias p -> aliases := (name, Alias p) :: !aliases))
        | _ ->
            (* Locally-defined structure/functor: shadows any forbidden
               module of the same name. *)
            aliases := (name, Local) :: !aliases)
  in

  let rec expr (self : Ast_iterator.iterator) (e : expression) =
    let allow = allow_of_attrs acc ~file e.pexp_attributes in
    with_allow allow (fun () ->
        match e.pexp_desc with
        | Pexp_ident { txt; loc } ->
            check_ident txt loc;
            check_poly_compare txt loc
        | Pexp_apply (({ pexp_desc = Pexp_ident { txt; loc }; _ } as f), args) ->
            if !toplevel then check_toplevel_apply txt loc;
            expr self f;
            List.iter (fun (_, a) -> expr self a) args
        | Pexp_fun (_, default, pat, body) ->
            (match default with
            | Some d -> with_toplevel false (fun () -> expr self d)
            | None -> ());
            self.pat self pat;
            with_locals (bound_names pat) (fun () ->
                with_toplevel false (fun () -> expr self body))
        | Pexp_let (rf, vbs, body) ->
            let names = List.concat_map (fun vb -> bound_names vb.pvb_pat) vbs in
            let bindings () = List.iter (self.value_binding self) vbs in
            if rf = Asttypes.Recursive then
              with_locals names (fun () ->
                  bindings ();
                  expr self body)
            else begin
              bindings ();
              with_locals names (fun () -> expr self body)
            end
        | Pexp_function cases ->
            with_toplevel false (fun () ->
                List.iter (fun c -> self.case self c) cases)
        | Pexp_open (od, body) ->
            with_saved_env (fun () ->
                handle_open self od;
                expr self body)
        | Pexp_letmodule ({ txt; _ }, me, body) ->
            module_expr self me;
            with_saved_env (fun () ->
                bind_module txt me;
                expr self body)
        | _ -> Ast_iterator.default_iterator.expr self e)
  in

  let value_binding (self : Ast_iterator.iterator) (vb : value_binding) =
    let allow = allow_of_attrs acc ~file vb.pvb_attributes in
    with_allow allow (fun () ->
        self.pat self vb.pvb_pat;
        (* [let g : T = e] keeps T beside the binding, not in the
           pattern — walk it or R5 misses signature-style constraints. *)
        (match vb.pvb_constraint with
        | Some (Pvc_constraint { typ = t; _ }) -> self.typ self t
        | Some (Pvc_coercion { ground; coercion }) ->
            Option.iter (self.typ self) ground;
            self.typ self coercion
        | None -> ());
        expr self vb.pvb_expr)
  in

  let structure_item (self : Ast_iterator.iterator) (si : structure_item) =
    match si.pstr_desc with
    | Pstr_attribute a when a.attr_name.txt = "gcsim.allow" ->
        (* Whole-file allow: push a scope that is never popped. *)
        (match allow_of_attrs acc ~file [ a ] with
        | Some s -> allow_stack := s :: !allow_stack
        | None -> ())
    | Pstr_value (_, vbs) ->
        (* Register names first so self/forward references resolve as
           local. *)
        List.iter
          (fun vb ->
            match vb.pvb_pat.ppat_desc with
            | Ppat_var { txt; _ } -> Hashtbl.replace toplevel_values txt ()
            | _ -> ())
          vbs;
        List.iter (value_binding self) vbs
    | Pstr_eval (e, attrs) ->
        let allow = allow_of_attrs acc ~file attrs in
        with_allow allow (fun () -> expr self e)
    | Pstr_module mb ->
        let allow = allow_of_attrs acc ~file mb.pmb_attributes in
        with_allow allow (fun () ->
            module_expr self mb.pmb_expr;
            bind_module mb.pmb_name.txt mb.pmb_expr)
    | Pstr_recmodule mbs ->
        List.iter
          (fun (mb : module_binding) ->
            (match mb.pmb_name.txt with
            | Some n -> aliases := (n, Local) :: !aliases
            | None -> ());
            module_expr self mb.pmb_expr)
          mbs
    | Pstr_open od -> handle_open self od
    | Pstr_include incl -> (
        match incl.pincl_mod.pmod_desc with
        | Pmod_ident { txt; loc } -> (
            let parts = Longident.flatten txt in
            match forbidden_module_of parts with
            | Some p ->
                emit loc R1
                  (Printf.sprintf "include of host-effect module %s"
                     (path_to_string p))
            | None -> opens := parts :: !opens)
        | _ -> module_expr self incl.pincl_mod)
    | _ -> Ast_iterator.default_iterator.structure_item self si
  in

  (* A case's pattern binds its names for the guard and the body. *)
  let case (self : Ast_iterator.iterator) (c : case) =
    with_locals (bound_names c.pc_lhs) (fun () ->
        Ast_iterator.default_iterator.case self c)
  in

  let iter =
    {
      Ast_iterator.default_iterator with
      expr;
      structure_item;
      module_expr;
      value_binding;
      typ;
      case;
    }
  in
  List.iter (fun si -> iter.structure_item iter si) str

(* ------------------------------------------------------------------ *)
(* Entry points.                                                       *)

let parse_source (acc : acc) (src : source) =
  let lexbuf = Lexing.from_string src.src_text in
  Lexing.set_filename lexbuf src.src_file;
  match Parse.implementation lexbuf with
  | str -> Some str
  | exception exn ->
      let line, col, msg =
        match exn with
        | Syntaxerr.Error err ->
            let loc = Syntaxerr.location_of_error err in
            let l, c = pos_of loc in
            (l, c, "syntax error")
        | exn -> (1, 0, Printexc.to_string exn)
      in
      acc.diags <-
        { file = src.src_file; line; col; rule = Parse; message = msg }
        :: acc.diags;
      None

(** Lint a set of sources.  Diagnostics come back sorted by file, line,
    column. *)
let run (sources : source list) : diag list =
  let acc = { diags = []; scopes = [] } in
  List.iter
    (fun src ->
      match parse_source acc src with
      | Some str -> analyze_structure acc src str
      | None -> ())
    sources;
  (* Stale allows: an annotation that suppressed nothing is debt paid
     off — remove it (mirrors the old stale-allowlist check). *)
  List.iter
    (fun s ->
      if not s.s_used then
        acc.diags <-
          {
            file = s.s_file;
            line = s.s_line;
            col = s.s_col;
            rule = Allow;
            message =
              Printf.sprintf
                "stale [@gcsim.allow \"%s\"]: it suppresses nothing — remove it"
                s.s_reason;
          }
          :: acc.diags)
    acc.scopes;
  List.sort
    (fun a b ->
      match compare a.file b.file with
      | 0 -> ( match compare a.line b.line with 0 -> compare a.col b.col | c -> c)
      | c -> c)
    acc.diags

(* ------------------------------------------------------------------ *)
(* Filesystem driver.                                                  *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* Library wrapper module of a dune directory: the [(name x)] field of
   its [dune] file, else the directory basename. *)
let lib_module_of_dir dir =
  let dune = Filename.concat dir "dune" in
  let from_dune =
    if Sys.file_exists dune then
      let text = read_file dune in
      let re = Str.regexp "(name[ \t\n]+\\([a-zA-Z0-9_]+\\))" in
      try
        ignore (Str.search_forward re text 0);
        Some (Str.matched_group 1 text)
      with Not_found -> None
    else None
  in
  let name = match from_dune with Some n -> n | None -> Filename.basename dir in
  String.capitalize_ascii name

let module_of_file path =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename path))

(* The sentinel-only trees where R5 applies, identified by directory
   basename so both the real invocation (lib/heap) and the self-test
   fixture tree (fixtures/bad/heap) participate. *)
let r5_dirs = [ "heap"; "collectors" ]

(* The hot-path trees where R6 applies. *)
let r6_dirs = [ "sim"; "core"; "heap"; "collectors"; "runtime"; "workload" ]

(** All [.ml] files directly in [dir], as lintable sources. *)
let load_dir dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then
    failwith (Printf.sprintf "gcsim-lint: no such directory: %s" dir);
  let wrapper = lib_module_of_dir dir in
  let r5 = List.mem (Filename.basename dir) r5_dirs in
  let r6 = List.mem (Filename.basename dir) r6_dirs in
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.filter (fun f -> Filename.check_suffix f ".ml")
  |> List.map (fun f ->
         let path = Filename.concat dir f in
         {
           src_file = path;
           src_text = read_file path;
           src_modpath = [ wrapper; module_of_file path ];
           src_r5 = r5;
           src_r6 = r6;
         })

let run_dirs dirs =
  let sources = List.concat_map load_dir dirs in
  (run sources, List.length sources)

(* ------------------------------------------------------------------ *)
(* Self-test over the fixture tree.                                    *)

(* Fixture files declare what the linter must say about them in a
   comment: [(* expect: R1 *)].  A file with no marker must stay
   silent. *)
let expected_rules text =
  let re = Str.regexp "expect:\\([ \tA-Za-z0-9]*\\)" in
  try
    ignore (Str.search_forward re text 0);
    Str.matched_group 1 text
    |> String.split_on_char ' '
    |> List.filter_map (fun w ->
           match String.trim w with "" -> None | w -> rule_of_string w)
    |> List.sort_uniq compare
  with Not_found -> []

let load_fixture_tree root =
  Sys.readdir root |> Array.to_list |> List.sort compare
  |> List.filter (fun d -> Sys.is_directory (Filename.concat root d))
  |> List.concat_map (fun d ->
         load_dir (Filename.concat root d))

(** Run the analyzer against the planted-violation fixture tree.
    Returns [Ok n] ([n] files checked) or [Error reasons]. *)
let self_test ~fixtures_dir =
  let errors = ref [] in
  let check_tree sub =
    let root = Filename.concat fixtures_dir sub in
    let sources = load_fixture_tree root in
    if sources = [] then
      errors := Printf.sprintf "no fixtures found under %s" root :: !errors;
    let diags = run sources in
    List.iter
      (fun src ->
        let expected = expected_rules src.src_text in
        let actual =
          List.filter (fun d -> d.file = src.src_file) diags
          |> List.map (fun d -> d.rule)
          |> List.sort_uniq compare
        in
        List.iter
          (fun r ->
            if not (List.mem r actual) then
              errors :=
                Printf.sprintf "%s: expected a %s diagnostic, got none"
                  src.src_file (rule_to_string r)
                :: !errors)
          expected;
        List.iter
          (fun r ->
            if not (List.mem r expected) then
              errors :=
                Printf.sprintf "%s: unexpected %s diagnostic:\n  %s" src.src_file
                  (rule_to_string r)
                  (String.concat "\n  "
                     (List.filter_map
                        (fun d ->
                          if d.file = src.src_file && d.rule = r then
                            Some (diag_to_string d)
                          else None)
                        diags))
                :: !errors)
          actual)
      sources;
    List.length sources
  in
  let n_bad = check_tree "bad" in
  let n_good = check_tree "good" in
  match !errors with [] -> Ok (n_bad + n_good) | es -> Error (List.rev es)
