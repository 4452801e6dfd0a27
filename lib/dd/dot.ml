let default_var_name i = Printf.sprintf "x%d" i

let header name buf =
  Buffer.add_string buf (Printf.sprintf "digraph \"%s\" {\n" name);
  Buffer.add_string buf "  ordering=out;\n"

let edge buf src dst ~solid =
  Buffer.add_string buf
    (Printf.sprintf "  n%d -> n%d [style=%s];\n" src dst
       (if solid then "solid" else "dashed"))

let add ?(name = "add") ?(var_name = default_var_name) root =
  let buf = Buffer.create 1024 in
  header name buf;
  let seen = Hashtbl.create 64 in
  let rec go node =
    let id = Add.node_id node in
    if not (Hashtbl.mem seen id) then begin
      Hashtbl.add seen id ();
      match node with
      | Add.Leaf l ->
        Buffer.add_string buf
          (Printf.sprintf "  n%d [shape=box,label=\"%g\"];\n" id l.value)
      | Add.Node n ->
        Buffer.add_string buf
          (Printf.sprintf "  n%d [shape=circle,label=\"%s\"];\n" id
             (var_name n.var));
        edge buf id (Add.node_id n.high) ~solid:true;
        edge buf id (Add.node_id n.low) ~solid:false;
        go n.low;
        go n.high
    end
  in
  go root;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
