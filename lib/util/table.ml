(** Plain-text table rendering for benchmark output.

    Columns are sized to their widest cell; the first column is
    left-aligned, the rest right-aligned (numbers read better that way). *)

let widths ncols all =
  let w = Array.make ncols 0 in
  List.iter
    (fun row ->
      List.iteri (fun i c -> w.(i) <- max w.(i) (String.length c)) row)
    all;
  w

let pad align width s =
  let n = width - String.length s in
  if n <= 0 then s
  else
    match align with
    | `Left -> s ^ String.make n ' '
    | `Right -> String.make n ' ' ^ s

let render_row w row =
  let cells =
    List.mapi
      (fun i c -> pad (if i = 0 then `Left else `Right) w.(i) c)
      row
  in
  "| " ^ String.concat " | " cells ^ " |"

let render ~title ~headers rows =
  let ncols = List.length headers in
  List.iter
    (fun r ->
      if List.length r <> ncols then
        invalid_arg
          (Printf.sprintf "Table.render %S: a row has %d cells under %d headers"
             title (List.length r) ncols))
    rows;
  let w = widths ncols (headers :: rows) in
  let sep =
    "+"
    ^ String.concat "+"
        (Array.to_list (Array.map (fun n -> String.make (n + 2) '-') w))
    ^ "+"
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf ("== " ^ title ^ " ==\n");
  Buffer.add_string buf (sep ^ "\n");
  Buffer.add_string buf (render_row w headers ^ "\n");
  Buffer.add_string buf (sep ^ "\n");
  List.iter (fun r -> Buffer.add_string buf (render_row w r ^ "\n")) rows;
  Buffer.add_string buf (sep ^ "\n");
  Buffer.contents buf
