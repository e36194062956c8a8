open Eden_hw
open Eden_kernel

let server_node = 0

let cluster ?seed ~terminals () =
  if terminals < 1 then invalid_arg "Central.cluster: need terminals";
  let server =
    {
      (Machine.file_server_config ~name:"central") with
      Machine.gdps = 8;
      memory_bytes = 8_000_000;
    }
  in
  let terminal i =
    {
      (Machine.default_config ~name:(Printf.sprintf "terminal%d" i)) with
      Machine.gdps = 1;
      memory_bytes = 256_000;
    }
  in
  Cluster.create ?seed ~configs:(server :: List.init terminals terminal) ()

let create_on_server cl ~type_name init =
  Cluster.create_object cl ~node:server_node ~type_name init
