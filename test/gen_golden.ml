(* Writes the golden decode corpus under the given directory:

     dune exec test/gen_golden.exe -- test/fixtures/golden

   A stream file that already exists is kept as it is: the corpus pins
   decoders, so its streams must not follow encoder changes.  The
   manifest is always rewritten from the decoders being built, which is
   how a change that moves a decode result on purpose re-baselines it
   (and says so).  The [golden] tests in test_golden.ml replay it. *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let () =
  let dir =
    match Sys.argv with
    | [| _; dir |] -> dir
    | _ ->
        prerr_endline "usage: gen_golden DIR";
        exit 2
  in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let streams =
    List.map
      (fun (file, codec, make) ->
        let path = Filename.concat dir file in
        if not (Sys.file_exists path) then
          Out_channel.with_open_bin path (fun oc ->
              Out_channel.output_bytes oc (make ()));
        (file, Golden.results ~codec (Bytes.of_string (read_file path))))
      Golden.streams
  in
  Out_channel.with_open_bin (Filename.concat dir "manifest.txt") (fun oc ->
      Golden.write_manifest oc streams);
  Printf.printf "%d cases over %d streams\n"
    (List.fold_left (fun n (_, cases) -> n + List.length cases) 0 streams)
    (List.length streams)
