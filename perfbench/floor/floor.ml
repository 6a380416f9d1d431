let () = ()
