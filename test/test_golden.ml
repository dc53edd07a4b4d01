(* The golden decode corpus: every case derived from the committed
   streams under fixtures/golden/ (truncations and single-bit flips, see
   golden.ml) must decode to exactly the result its manifest records,
   output digest or error codec, offset and reason. *)

let dir = Filename.concat "fixtures" "golden"

let read_file path = In_channel.with_open_bin path In_channel.input_all

let manifest =
  lazy (Golden.read_manifest (read_file (Filename.concat dir "manifest.txt")))

let check_stream ~file ~codec () =
  let expected =
    match List.assoc_opt file (Lazy.force manifest) with
    | Some cases -> cases
    | None -> Alcotest.failf "%s is not in the manifest" file
  in
  let actual =
    Golden.results ~codec (Bytes.of_string (read_file (Filename.concat dir file)))
  in
  Alcotest.(check int) (file ^ " case count") (List.length expected)
    (List.length actual);
  let moved =
    List.filter (fun (e, a) -> e <> a) (List.combine expected actual)
  in
  List.iteri
    (fun i ((case, e), (_, a)) ->
      if i < 5 then Printf.printf "%s %s\n  expected: %s\n       got: %s\n" file case e a)
    moved;
  Alcotest.(check int) (file ^ " cases that moved") 0 (List.length moved)

let suite =
  ( "golden",
    List.map
      (fun (file, codec, _) ->
        Alcotest.test_case ("decode corpus " ^ file) `Quick
          (check_stream ~file ~codec))
      Golden.streams )
